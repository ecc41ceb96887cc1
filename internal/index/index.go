// Package index implements the inverted index as organized by the BOSS
// paper (Section IV-A): per-term posting lists divided into blocks of 128
// (docID, tf) postings, docIDs delta-encoded and compressed per-list with
// the best ("hybrid") scheme, and per-block metadata carrying the first and
// last docID, the block's maximum term-score, the compressed-data offset,
// and decompression parameters — 19 bytes per block. Per-document BM25
// normalizers are precomputed at build time (+4 bytes per document) so a
// term score costs three arithmetic operations at query time.
package index

import (
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"boss/internal/compress"
	"boss/internal/corpus"
	"boss/internal/score"
)

// DefaultBlockSize is the paper's block length (128 values).
const DefaultBlockSize = 128

// BlockMetaBytes is the serialized metadata size per block (Section IV-A:
// 4B first docID + 4B last docID + 4B max term-score + 4B offset + 3B of
// packed count/bit-width/exception fields).
const BlockMetaBytes = 19

// DocNormBytes is the per-document scoring metadata size (Section IV-C,
// Scoring Module).
const DocNormBytes = 4

// BlockMeta is the per-block skip/decompression record. Its fields are
// ordered widest first so that it packs into 32 bytes.
type BlockMeta struct {
	MaxScore float64 // maximum term-score of any posting in the block
	FirstDoc uint32  // first docID in the block (uncompressed)
	LastDoc  uint32  // last docID in the block (uncompressed)
	Offset   uint32  // byte offset of the compressed payload within the list
	Length   uint32  // byte length of the compressed payload
	// Checksum is the CRC32-C of the compressed payload, computed at
	// build time and verified on fetch so media corruption is detected
	// instead of silently scored; no value switches the check off. It is
	// not part of the paper's 19-byte metadata budget: SCM devices keep
	// block CRCs in the per-line ECC/spare area, so BlockMetaBytes is
	// unchanged.
	Checksum uint32
	Count    uint16 // number of postings in the block (≤ block size)
	// MaxImpact is the largest 8-bit quantized impact code of any posting
	// in the block (impact-enabled lists only; see BuildOptions.Impacts).
	// The MaxScore operator skips whole blocks on it the way BlockMaxWAND
	// skips on MaxScore.
	MaxImpact uint8
}

// PostingList is one term's compressed posting list.
type PostingList struct {
	Term     string
	Scheme   compress.Scheme // concrete scheme chosen for this list
	DF       int             // document frequency
	IDF      float64         // BM25 idf, precomputed at build time
	MaxScore float64         // list-wide maximum term-score (WAND bound)
	Blocks   []BlockMeta
	Data     []byte // concatenated compressed block payloads

	// ImpactStep is the per-list Q16.16 dequantization step of the 8-bit
	// impact codes stored at each block payload's tail (listMax/255);
	// zero means the list carries no impacts. MaxImpact is the list-wide
	// maximum code, the MaxScore operator's per-term upper bound.
	ImpactStep score.Fixed
	MaxImpact  uint8

	// codec is the Scheme's codec, resolved once at build/load time so the
	// per-block decode path skips the scheme dispatch.
	codec compress.Codec

	// id is the list's process-wide identity, used as the decoded-block
	// cache key so the cache package needs no reference to index types.
	// Assigned at build/load time; lazily for hand-constructed test lists.
	id atomic.Uint64
}

// nextListID hands out process-wide posting-list identities (0 is reserved
// for "unassigned").
var nextListID atomic.Uint64

// ID returns the list's process-unique identity for cache keying.
func (pl *PostingList) ID() uint64 {
	if id := pl.id.Load(); id != 0 {
		return id
	}
	pl.id.CompareAndSwap(0, nextListID.Add(1))
	return pl.id.Load()
}

// Codec returns the list's codec, resolving (and caching) it on first use.
// Lists built by Build or read by ReadIndex arrive with the codec set; the
// lazy path only serves hand-constructed lists in tests.
func (pl *PostingList) Codec() compress.Codec {
	if pl.codec == nil {
		pl.codec = compress.ForScheme(pl.Scheme)
	}
	return pl.codec
}

// MetadataBytes reports the size of the list's block metadata as laid out
// by the paper (19 B per block).
func (pl *PostingList) MetadataBytes() int { return BlockMetaBytes * len(pl.Blocks) }

// Index is a searchable inverted index over one shard.
type Index struct {
	Params    score.Params
	NumDocs   int
	AvgDocLen float64
	// DocNorms[d] is the precomputed BM25 normalizer of document d.
	DocNorms []float64
	// Lists maps term -> posting list.
	Lists map[string]*PostingList
	// TotalBytes is the modeled footprint: payloads, block metadata and
	// norms.
	TotalBytes uint64
}

// BuildOptions configures index construction.
type BuildOptions struct {
	// Scheme selects the compression scheme; compress.SchemeHybrid (the
	// default zero value is BP, so set explicitly) picks the best scheme
	// per posting list as the paper's hybrid approach does.
	Scheme compress.Scheme
	// BlockSize overrides the posting-block length (default 128).
	BlockSize int
	// Params are the BM25 parameters (default k1=1.2, b=0.75 if zero).
	Params score.Params
	// Impacts stores each posting's 8-bit quantized term score at the
	// block payload's tail (after the tf stream), plus per-block and
	// per-list max-impact metadata — the Q7 "sparse-dot" family's
	// precomputed weights. Off by default: it grows every block payload
	// by Count bytes, so only impact-serving indexes opt in.
	Impacts bool
}

// Build constructs an index over the whole corpus.
func Build(c *corpus.Corpus, opts BuildOptions) *Index {
	return BuildRange(c, 0, c.Spec.NumDocs, opts)
}

// BuildRange constructs the index of the docID range [lo, hi) of the
// corpus, in place: each posting's docID is rebased to lo as it is
// encoded, and terms with no posting in the range are absent. Scoring
// takes the collection's statistics — the document count, the average
// document length and each term's document frequency — from the whole
// corpus, so a range's lists score every document exactly as the whole
// corpus's index does (Section II-B's root/leaf architecture).
//
// The index lays its lists out in three slabs: one PostingList per term
// present, one BlockMeta array for all their blocks, and the payloads
// packed into chunked arenas, one per build worker.
func BuildRange(c *corpus.Corpus, lo, hi int, opts BuildOptions) *Index {
	if lo < 0 || hi > c.Spec.NumDocs || lo >= hi {
		panic(fmt.Sprintf("index: docID range [%d, %d) outside a %d-document corpus", lo, hi, c.Spec.NumDocs))
	}
	if opts.BlockSize <= 0 {
		opts.BlockSize = DefaultBlockSize
	}
	if opts.BlockSize > math.MaxUint16 {
		panic("index: block size exceeds metadata range")
	}
	if opts.Params == (score.Params{}) {
		opts.Params = score.DefaultParams()
	}
	idx := &Index{
		Params:    opts.Params,
		NumDocs:   hi - lo,
		AvgDocLen: c.AvgDocLen,
		DocNorms:  make([]float64, hi-lo),
	}
	for d, l := range c.DocLens[lo:hi] {
		dl := l
		if dl == 0 {
			dl = 1 // empty docs still need a sane norm
		}
		idx.DocNorms[d] = opts.Params.DocNorm(dl, c.AvgDocLen)
	}

	// Find each term's postings in the range and size the slabs.
	bs := opts.BlockSize
	spans := make([]termSpan, 0, len(c.Terms))
	numBlocks := 0
	for i := range c.Terms {
		ps := c.Terms[i].Postings
		start, end := 0, len(ps)
		if lo > 0 {
			start = sort.Search(len(ps), func(j int) bool { return ps[j].DocID >= uint32(lo) })
		}
		if hi < c.Spec.NumDocs {
			end = start + sort.Search(len(ps)-start, func(j int) bool { return ps[start+j].DocID >= uint32(hi) })
		}
		if start == end {
			continue
		}
		spans = append(spans, termSpan{term: i, start: start, end: end, block: numBlocks})
		numBlocks += (end - start + bs - 1) / bs
	}
	lists := make([]PostingList, len(spans))
	blocks := make([]BlockMeta, numBlocks)

	// Posting lists are independent once the document norms exist; build
	// them on every P, the caller included, each worker claiming buildChunk
	// terms at a time, then hand out identities in term order.
	var next atomic.Int64
	work := func() {
		sc := buildScratch{base: uint32(lo)}
		for {
			first := int(next.Add(buildChunk)) - buildChunk
			if first >= len(spans) {
				return
			}
			for j := first; j < min(first+buildChunk, len(spans)); j++ {
				sp := &spans[j]
				tp := &c.Terms[sp.term]
				pl := &lists[j]
				pl.Term = tp.Term
				pl.IDF = score.IDF(c.Spec.NumDocs, len(tp.Postings))
				nb := (sp.end - sp.start + bs - 1) / bs
				pl.Blocks = blocks[sp.block : sp.block+nb : sp.block+nb]
				sc.buildList(idx, pl, tp.Postings[sp.start:sp.end], opts)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), (len(spans)+buildChunk-1)/buildChunk); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	idx.Lists = make(map[string]*PostingList, len(lists))
	idx.TotalBytes = uint64(idx.NumDocs * DocNormBytes)
	for j := range lists {
		idx.addList(&lists[j], nextListID.Add(1))
	}
	return idx
}

// addList files pl under its term with identity id, and adds its payload
// and block metadata to TotalBytes, which the norms' bytes start.
func (idx *Index) addList(pl *PostingList, id uint64) {
	pl.id.Store(id)
	idx.Lists[pl.Term] = pl
	idx.TotalBytes += uint64(len(pl.Data) + pl.MetadataBytes())
}

// termSpan is one term present in a BuildRange: its rank in the corpus,
// its postings in the range, Postings[start:end], and where its blocks
// start in the block slab.
type termSpan struct {
	term, start, end, block int
}

// buildChunk is how many consecutive terms a Build worker claims at once,
// so most claims cover a run of one-posting lists. Chunks of 1 to 64 build
// the bench corpus's shards in the same time at one and two Ps.
const buildChunk = 16

// arenaChunk is the size of the chunks a Build worker packs payloads
// into. A payload over an eighth of it gets an allocation of its own, so
// at most an eighth of a chunk goes unused.
const arenaChunk = 64 << 10

// buildScratch is one Build worker's state: the range's first docID, which
// every posting is rebased to, the worker's payload arena, and its reusable
// buffers: the hybrid choice's delta stream, one block's docID deltas and
// tfs, an impact list's scores and the list payload under construction.
// Nothing built points into the buffers.
type buildScratch struct {
	base              uint32
	arena             slab[byte]
	deltas, docs, tfs []uint32
	scores            []float64
	data              []byte
}

// place copies a finished payload into the worker's arena and returns it,
// capped at its own length.
func (sc *buildScratch) place(p []byte) []byte {
	if len(p) > arenaChunk/8 {
		return append([]byte(nil), p...)
	}
	return append(sc.arena.take(len(p), arenaChunk)[:0], p...)
}

// slab hands out runs of elements carved from chunks it allocates.
type slab[E any] []E

// take returns the next n elements of the slab, capped at n, starting a
// new chunk of the given size when the current one lacks room.
func (s *slab[E]) take(n, chunk int) []E {
	if cap(*s)-len(*s) < n {
		*s = make([]E, 0, chunk)
	}
	off := len(*s)
	*s = (*s)[:off+n]
	return (*s)[off : off+n : off+n]
}

// buildList compresses one term's postings into pl, whose Term, IDF and
// Blocks (sized to the list's block count) the caller has set.
func (sc *buildScratch) buildList(idx *Index, pl *PostingList, postings []corpus.Posting, opts BuildOptions) {
	pl.DF = len(postings)
	base := sc.base

	// Hybrid selection considers the whole list's delta stream.
	scheme := opts.Scheme
	if scheme == compress.SchemeHybrid {
		deltas := sc.deltas[:0]
		prev := base
		for _, p := range postings {
			deltas = append(deltas, p.DocID-prev, p.TF)
			prev = p.DocID
		}
		scheme, _ = compress.ChooseBest(deltas, nil)
		sc.deltas = deltas
	}
	pl.Scheme = scheme
	pl.codec = compress.ForScheme(scheme)
	codec := pl.codec

	// Impact quantization is scaled to the list-wide maximum score, so an
	// impact-enabled list needs every posting's score before the first
	// block is laid out.
	scores := sc.scores[:0]
	listMax := 0.0
	if opts.Impacts {
		for _, p := range postings {
			s := idx.Params.TermScore(pl.IDF, p.TF, idx.DocNorms[p.DocID-base])
			scores = append(scores, s)
			if s > listMax {
				listMax = s
			}
		}
		pl.ImpactStep = score.ImpactStep(listMax)
		sc.scores = scores
	}

	bs := opts.BlockSize
	docBuf, tfBuf, data := sc.docs, sc.tfs, sc.data[:0]
	for b := range pl.Blocks {
		start := b * bs
		blk := postings[start:min(start+bs, len(postings))]
		docBuf = docBuf[:0]
		tfBuf = tfBuf[:0]
		first := blk[0].DocID
		prev := first
		maxScore := 0.0
		for _, p := range blk {
			docBuf = append(docBuf, p.DocID-prev) // first delta is 0
			prev = p.DocID
			tfBuf = append(tfBuf, p.TF)
			s := idx.Params.TermScore(pl.IDF, p.TF, idx.DocNorms[p.DocID-base])
			if s > maxScore {
				maxScore = s
			}
		}
		offset := uint32(len(data))
		data = codec.Encode(data, docBuf)
		data = codec.Encode(data, tfBuf)
		// Impact codes ride at the payload tail, after the tf stream:
		// decoders extract exactly Count values per stream and ignore
		// trailing bytes, so the placement needs no codec changes, and
		// because Length (and therefore the block's simulated read and
		// its CRC) covers the tail, the existing fetch charges and
		// integrity checks extend to impacts for free.
		maxImpact := uint8(0)
		if opts.Impacts {
			for i := range blk {
				q := score.QuantizeImpact(scores[start+i], listMax)
				if q > maxImpact {
					maxImpact = q
				}
				data = append(data, q)
			}
			if maxImpact > pl.MaxImpact {
				pl.MaxImpact = maxImpact
			}
		}
		pl.Blocks[b] = BlockMeta{
			FirstDoc:  first - base,
			LastDoc:   blk[len(blk)-1].DocID - base,
			MaxScore:  maxScore,
			Offset:    offset,
			Length:    uint32(len(data)) - offset,
			Count:     uint16(len(blk)),
			Checksum:  ChecksumPayload(data[offset:]),
			MaxImpact: maxImpact,
		}
		if maxScore > pl.MaxScore {
			pl.MaxScore = maxScore
		}
	}
	pl.Data = sc.place(data)
	sc.docs, sc.tfs, sc.data = docBuf, tfBuf, data
}

// castagnoli is the CRC32-C polynomial table used for block integrity
// (the same polynomial SCM/NVMe devices use for end-to-end protection).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChecksumPayload computes the CRC32-C integrity checksum of a block
// payload. Allocation-free, so fetch paths may call it inline.
func ChecksumPayload(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// VerifyBlock recomputes block b's payload checksum, reporting whether
// the payload is intact. Every block is checked: a zero Checksum is a
// checksum like any other.
func (pl *PostingList) VerifyBlock(b int) bool {
	meta := pl.Blocks[b]
	return ChecksumPayload(pl.Data[meta.Offset:meta.Offset+meta.Length]) == meta.Checksum
}

// HasImpacts reports whether the list carries 8-bit quantized impacts
// (built with BuildOptions.Impacts).
func (pl *PostingList) HasImpacts() bool { return pl.ImpactStep != 0 }

// BlockImpacts returns block b's impact codes: the Count bytes at the
// block payload's tail, one code per posting in docID order. Only valid
// on impact-enabled lists.
//
//boss:hotpath BlockImpacts aliases the list payload; zero-copy.
func (pl *PostingList) BlockImpacts(b int) []byte {
	meta := &pl.Blocks[b]
	end := meta.Offset + meta.Length
	return pl.Data[end-uint32(meta.Count) : end]
}

// List returns the posting list for term, or nil if the term is not
// indexed.
func (idx *Index) List(term string) *PostingList { return idx.Lists[term] }

// MustList returns the posting list for term, panicking if absent.
func (idx *Index) MustList(term string) *PostingList {
	pl := idx.Lists[term]
	if pl == nil {
		panic(fmt.Sprintf("index: term %q not indexed", term))
	}
	return pl
}

// DecodeBlock decodes block b of list pl, appending docIDs and term
// frequencies to the provided buffers (which may be nil) and returning the
// extended slices.
func (idx *Index) DecodeBlock(pl *PostingList, b int, docs, tfs []uint32) ([]uint32, []uint32) {
	meta := pl.Blocks[b]
	codec := pl.Codec()
	payload := pl.Data[meta.Offset : meta.Offset+meta.Length]
	n := int(meta.Count)
	startDocs := len(docs)
	docs, used := codec.Decode(docs, payload, n)
	tfs, _ = codec.Decode(tfs, payload[used:], n)
	compress.DeltaDecode(docs[startDocs:], meta.FirstDoc)
	return docs, tfs
}

// TermScore computes the BM25 term score of (docID, tf) under list pl.
func (idx *Index) TermScore(pl *PostingList, docID, tf uint32) float64 {
	return idx.Params.TermScore(pl.IDF, tf, idx.DocNorms[docID])
}

// Terms returns all indexed terms in sorted order.
func (idx *Index) Terms() []string {
	terms := make([]string, 0, len(idx.Lists))
	for t := range idx.Lists {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	return terms
}

// SchemeHistogram reports how many posting lists use each concrete scheme —
// the "hybrid" choice distribution (cmd/indexstat prints this).
func (idx *Index) SchemeHistogram() map[compress.Scheme]int {
	h := make(map[compress.Scheme]int)
	for _, pl := range idx.Lists {
		h[pl.Scheme]++
	}
	return h
}

// Stats summarizes the index footprint.
type Stats struct {
	NumDocs         int
	NumTerms        int
	TotalPostings   int64
	PayloadBytes    int64
	MetadataBytes   int64
	NormBytes       int64
	RawPostingBytes int64 // 8 B per posting (docID + tf uncompressed)
}

// ComputeStats walks the index and reports its footprint.
func (idx *Index) ComputeStats() Stats {
	s := Stats{
		NumDocs:   idx.NumDocs,
		NumTerms:  len(idx.Lists),
		NormBytes: int64(idx.NumDocs * DocNormBytes),
	}
	for _, pl := range idx.Lists {
		s.TotalPostings += int64(pl.DF)
		s.PayloadBytes += int64(len(pl.Data))
		s.MetadataBytes += int64(pl.MetadataBytes())
	}
	s.RawPostingBytes = s.TotalPostings * 8
	return s
}

// CompressionRatio reports raw posting bytes over compressed payload bytes.
func (s Stats) CompressionRatio() float64 {
	if s.PayloadBytes == 0 {
		return 0
	}
	return float64(s.RawPostingBytes) / float64(s.PayloadBytes)
}
