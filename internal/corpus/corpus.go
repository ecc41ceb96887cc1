package corpus

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strconv"
)

// Spec parameterizes a synthetic document corpus. The defaults produced by
// ClueWebLike and CCNewsLike mimic the statistics that matter to the paper's
// results: Zipf-distributed document frequencies, docID clustering, and the
// ratio of posting-list volume to document count.
type Spec struct {
	// Name labels the corpus in reports ("clueweb", "ccnews", ...).
	Name string
	// NumDocs is the document count D.
	NumDocs int
	// NumTerms is the vocabulary size V.
	NumTerms int
	// TopDF is the document frequency of the most common term, as a
	// fraction of NumDocs.
	TopDF float64
	// ZipfS is the Zipf exponent of the document-frequency distribution.
	ZipfS float64
	// MaxTF caps per-document term frequency.
	MaxTF int
	// Clustering in [0,1] controls docID locality within posting lists
	// (0 = uniform, 1 = strongly clustered).
	Clustering float64
	// Seed seeds all generation randomness.
	Seed int64
}

// ClueWebLike returns a spec mimicking ClueWeb12's statistics, scaled by
// scale in (0, 1]. At scale 1 the corpus holds ~1M documents; tests and
// benches use much smaller scales.
func ClueWebLike(scale float64) Spec {
	return Spec{
		Name:       "clueweb",
		NumDocs:    scaled(1_000_000, scale),
		NumTerms:   scaled(120_000, scale),
		TopDF:      0.55,
		ZipfS:      1.07,
		MaxTF:      64,
		Clustering: 0.6,
		Seed:       0xC1EB,
	}
}

// CCNewsLike returns a spec mimicking CC-News (shorter articles, smaller
// vocabulary, slightly flatter df distribution), scaled by scale in (0, 1].
func CCNewsLike(scale float64) Spec {
	return Spec{
		Name:       "ccnews",
		NumDocs:    scaled(600_000, scale),
		NumTerms:   scaled(80_000, scale),
		TopDF:      0.45,
		ZipfS:      1.12,
		MaxTF:      32,
		Clustering: 0.3,
		Seed:       0xCC4E,
	}
}

// ByName returns the profile the command-line tools' -corpus flag names,
// "clueweb" or "ccnews", at scale.
func ByName(name string, scale float64) (Spec, error) {
	switch name {
	case "clueweb":
		return ClueWebLike(scale), nil
	case "ccnews":
		return CCNewsLike(scale), nil
	}
	return Spec{}, fmt.Errorf("unknown corpus %q", name)
}

func scaled(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 64 {
		n = 64
	}
	return n
}

// Posting is one (docID, term frequency) pair.
type Posting struct {
	DocID uint32
	TF    uint32
}

// TermPostings is a term with its sorted posting list.
type TermPostings struct {
	Term     string
	Postings []Posting
}

// Corpus is a generated document collection in posting-list form, plus the
// per-document lengths BM25 needs.
type Corpus struct {
	Spec          Spec
	Terms         []TermPostings
	DocLens       []uint32
	AvgDocLen     float64
	TotalPostings int64
}

// Generate builds a corpus from spec. Terms are ordered by descending
// document frequency (rank order), named "t<rank>".
func Generate(spec Spec) *Corpus {
	if spec.NumDocs <= 0 || spec.NumTerms <= 0 {
		panic("corpus: spec must have positive NumDocs and NumTerms")
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	c := &Corpus{
		Spec:    spec,
		Terms:   make([]TermPostings, spec.NumTerms),
		DocLens: make([]uint32, spec.NumDocs),
	}
	topDF := float64(spec.NumDocs) * spec.TopDF
	sc := &sampleScratch{seen: make([]uint64, (spec.NumDocs+63)/64)}
	for rank := 0; rank < spec.NumTerms; rank++ {
		df := int(topDF / math.Pow(float64(rank+1), spec.ZipfS))
		if df < 1 {
			df = 1
		}
		if df > spec.NumDocs {
			df = spec.NumDocs
		}
		postings := c.samplePostings(rng, df, sc)
		c.Terms[rank] = TermPostings{
			Term:     "t" + strconv.Itoa(rank),
			Postings: postings,
		}
		c.TotalPostings += int64(len(postings))
	}
	// Real crawls order documents by site/time, so document style — and
	// with it document length — correlates with docID region. Pad each
	// document's length by a region-correlated lognormal factor (the pad
	// stands for the many terms outside the modeled vocabulary). This is
	// what gives posting blocks heterogeneous maximum term-scores, the
	// property block-level early termination exploits.
	const regionDocs = 512
	regionRng := rand.New(rand.NewSource(spec.Seed ^ 0x9E3779B9))
	var regionMult []float64
	for d := range c.DocLens {
		region := d / regionDocs
		for len(regionMult) <= region {
			regionMult = append(regionMult, math.Exp(regionRng.NormFloat64()*0.8))
		}
		grown := uint32(float64(c.DocLens[d]) * regionMult[region])
		if grown > c.DocLens[d] {
			c.DocLens[d] = grown
		}
	}
	var total uint64
	for _, l := range c.DocLens {
		total += uint64(l)
	}
	if spec.NumDocs > 0 {
		c.AvgDocLen = float64(total) / float64(spec.NumDocs)
	}
	if c.AvgDocLen == 0 {
		c.AvgDocLen = 1
	}
	return c
}

// sampleScratch is Generate's reusable sampling state: the docID buffer
// each term's postings are copied from, sampleSparse's cluster centers,
// and the bitset it dedups on, one bit per document and all clear between
// terms.
type sampleScratch struct {
	ids     []uint32
	centers []int64
	seen    []uint64
}

// samplePostings draws df distinct docIDs (uniform or clustered per the
// spec), assigns term frequencies, and charges each posting's tf to the
// document's length.
func (c *Corpus) samplePostings(rng *rand.Rand, df int, sc *sampleScratch) []Posting {
	d := c.Spec.NumDocs
	if df > d {
		df = d
	}
	var ids []uint32
	if df*2 >= d {
		// Dense list: Bernoulli per doc keeps things exact and fast enough.
		p := float64(df) / float64(d)
		ids = sc.ids[:0]
		for doc := 0; doc < d; doc++ {
			if rng.Float64() < p {
				ids = append(ids, uint32(doc))
			}
		}
		if len(ids) == 0 {
			ids = append(ids, uint32(rng.Intn(d)))
		}
	} else {
		ids = c.sampleSparse(rng, df, sc)
	}
	sc.ids = ids
	postings := make([]Posting, len(ids))
	for i, id := range ids {
		tf := sampleTF(rng, c.Spec.MaxTF)
		postings[i] = Posting{DocID: id, TF: tf}
		c.DocLens[id] += tf
	}
	return postings
}

// sortFreeSpan is how many bitset words per drawn id sampleSparse will
// scan to read its ids back in order instead of sorting them.
const sortFreeSpan = 16

// sampleSparse draws df distinct docIDs with the spec's clustering into
// sc.ids, sorted.
func (c *Corpus) sampleSparse(rng *rand.Rand, df int, sc *sampleScratch) []uint32 {
	d := int64(c.Spec.NumDocs)
	seen := sc.seen
	ids := sc.ids[:0]

	clustered := int(float64(df) * c.Spec.Clustering)
	numClusters := clustered/128 + 1
	centers := slices.Grow(sc.centers[:0], numClusters)[:numClusters]
	sc.centers = centers
	for i := range centers {
		centers[i] = rng.Int63n(d)
	}
	width := float64(d) / float64(numClusters) / 32
	if width < 2 {
		width = 2
	}

	lowWord, highWord := uint32(len(seen)), uint32(0)
	add := func(v int64) bool {
		if v < 0 || v >= d {
			return false
		}
		u := uint32(v)
		word, bit := u/64, uint64(1)<<(u%64)
		if seen[word]&bit != 0 {
			return false
		}
		seen[word] |= bit
		lowWord, highWord = min(lowWord, word), max(highWord, word)
		ids = append(ids, u)
		return true
	}
	attempts := 0
	for len(ids) < clustered && attempts < df*64 {
		attempts++
		ctr := centers[rng.Intn(numClusters)]
		add(ctr + int64(rng.NormFloat64()*width))
	}
	for len(ids) < df {
		add(rng.Int63n(d))
	}
	if int(highWord-lowWord) < sortFreeSpan*len(ids) {
		// The ids are dense enough in the words they span that reading
		// them back off the bitset, clearing it as it goes, is cheaper
		// than sorting them.
		ids = ids[:0]
		for w := lowWord; w <= highWord; w++ {
			for set := seen[w]; set != 0; set &= set - 1 {
				ids = append(ids, w*64+uint32(bits.TrailingZeros64(set)))
			}
			seen[w] = 0
		}
		return ids
	}
	for _, u := range ids {
		seen[u/64] = 0
	}
	slices.Sort(ids)
	return ids
}

// sampleTF draws a term frequency: mostly 1-2 with a heavy tail, capped.
func sampleTF(rng *rand.Rand, maxTF int) uint32 {
	tf := 1
	for tf < maxTF && rng.Float64() < 0.35 {
		tf++
	}
	return uint32(tf)
}

// Term returns the postings for a term name, or nil if absent.
func (c *Corpus) Term(name string) []Posting {
	for i := range c.Terms {
		if c.Terms[i].Term == name {
			return c.Terms[i].Postings
		}
	}
	return nil
}

// DF reports the document frequency of the term at the given rank.
func (c *Corpus) DF(rank int) int { return len(c.Terms[rank].Postings) }
