package index

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"boss/internal/compress"
	"boss/internal/corpus"
	"boss/internal/score"
)

func testCorpus(t testing.TB) *corpus.Corpus {
	t.Helper()
	return corpus.Generate(corpus.CCNewsLike(0.005))
}

func buildHybrid(t testing.TB, c *corpus.Corpus) *Index {
	t.Helper()
	return Build(c, BuildOptions{Scheme: compress.SchemeHybrid})
}

func TestBuildRoundTripsPostings(t *testing.T) {
	c := testCorpus(t)
	idx := buildHybrid(t, c)
	if len(idx.Lists) != len(c.Terms) {
		t.Fatalf("index has %d lists, corpus has %d terms", len(idx.Lists), len(c.Terms))
	}
	for _, tp := range c.Terms[:40] {
		pl := idx.MustList(tp.Term)
		if pl.DF != len(tp.Postings) {
			t.Fatalf("term %s: df %d != %d", tp.Term, pl.DF, len(tp.Postings))
		}
		var docs, tfs []uint32
		for b := range pl.Blocks {
			docs, tfs = idx.DecodeBlock(pl, b, docs, tfs)
		}
		if len(docs) != len(tp.Postings) {
			t.Fatalf("term %s: decoded %d postings, want %d", tp.Term, len(docs), len(tp.Postings))
		}
		for i, p := range tp.Postings {
			if docs[i] != p.DocID || tfs[i] != p.TF {
				t.Fatalf("term %s posting %d: got (%d,%d), want (%d,%d)",
					tp.Term, i, docs[i], tfs[i], p.DocID, p.TF)
			}
		}
	}
}

func TestBlockMetadataInvariants(t *testing.T) {
	if n := unsafe.Sizeof(BlockMeta{}); n != 32 {
		t.Fatalf("BlockMeta is %d bytes, want 32", n)
	}
	c := testCorpus(t)
	idx := buildHybrid(t, c)
	for _, term := range idx.Terms() {
		pl := idx.Lists[term]
		// Lists share their slabs, so each list's window is capped: an
		// append to one must not write into its neighbor.
		if cap(pl.Blocks) != len(pl.Blocks) || cap(pl.Data) != len(pl.Data) {
			t.Fatalf("term %s: Blocks or Data window not capped at its length", term)
		}
		prevLast := int64(-1)
		var expectOffset uint32
		for bi, b := range pl.Blocks {
			if int64(b.FirstDoc) <= prevLast {
				t.Fatalf("term %s block %d: first %d <= previous last %d", term, bi, b.FirstDoc, prevLast)
			}
			if b.LastDoc < b.FirstDoc {
				t.Fatalf("term %s block %d: last < first", term, bi)
			}
			if b.Offset != expectOffset {
				t.Fatalf("term %s block %d: offset %d, want %d", term, bi, b.Offset, expectOffset)
			}
			if b.Count == 0 || int(b.Count) > DefaultBlockSize {
				t.Fatalf("term %s block %d: count %d", term, bi, b.Count)
			}
			if b.MaxScore <= 0 {
				t.Fatalf("term %s block %d: non-positive max score", term, bi)
			}
			if b.MaxScore > pl.MaxScore+1e-12 {
				t.Fatalf("term %s block %d: block max exceeds list max", term, bi)
			}
			expectOffset += b.Length
			prevLast = int64(b.LastDoc)
		}
		if int(expectOffset) != len(pl.Data) {
			t.Fatalf("term %s: block lengths sum to %d, payload is %d", term, expectOffset, len(pl.Data))
		}
	}
}

func TestBlockMaxScoreIsTrueMax(t *testing.T) {
	c := testCorpus(t)
	idx := buildHybrid(t, c)
	pl := idx.MustList("t0")
	var docs, tfs []uint32
	for b := range pl.Blocks {
		docs, tfs = idx.DecodeBlock(pl, b, docs[:0], tfs[:0])
		max := 0.0
		for i := range docs {
			if s := idx.TermScore(pl, docs[i], tfs[i]); s > max {
				max = s
			}
		}
		if diff := max - pl.Blocks[b].MaxScore; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("block %d: metadata max %v, true max %v", b, pl.Blocks[b].MaxScore, max)
		}
	}
}

func TestHybridPicksDifferentSchemes(t *testing.T) {
	c := testCorpus(t)
	idx := buildHybrid(t, c)
	h := idx.SchemeHistogram()
	if len(h) < 2 {
		t.Fatalf("hybrid chose only %v; expected multiple schemes across lists", h)
	}
	total := 0
	for _, n := range h {
		total += n
	}
	if total != len(idx.Lists) {
		t.Fatalf("histogram total %d != %d lists", total, len(idx.Lists))
	}
}

func TestHybridNotWorseThanAnySingleScheme(t *testing.T) {
	c := corpus.Generate(corpus.CCNewsLike(0.003))
	hybrid := Build(c, BuildOptions{Scheme: compress.SchemeHybrid}).ComputeStats()
	for _, s := range compress.AllSchemes() {
		if s == compress.S16 {
			continue // S16 cannot represent all delta streams
		}
		single := Build(c, BuildOptions{Scheme: s}).ComputeStats()
		if hybrid.PayloadBytes > single.PayloadBytes {
			t.Fatalf("hybrid payload %d bytes exceeds %s payload %d bytes",
				hybrid.PayloadBytes, s, single.PayloadBytes)
		}
	}
}

func TestAddressesAreDisjoint(t *testing.T) {
	c := testCorpus(t)
	idx := buildHybrid(t, c)
	type region struct {
		start, end uint64
	}
	var regions []region
	for _, pl := range idx.Lists {
		regions = append(regions, region{pl.BaseAddr, pl.BaseAddr + uint64(len(pl.Data)) + uint64(pl.MetadataBytes())})
	}
	regions = append(regions, region{idx.NormBaseAddr, idx.TotalBytes})
	for i, a := range regions {
		if a.end > idx.TotalBytes {
			t.Fatalf("region %d extends past TotalBytes", i)
		}
		for j, b := range regions {
			if i == j {
				continue
			}
			if a.start < b.end && b.start < a.end {
				t.Fatalf("regions %d and %d overlap", i, j)
			}
		}
	}
}

func TestDocNorms(t *testing.T) {
	c := testCorpus(t)
	idx := buildHybrid(t, c)
	if len(idx.DocNorms) != c.Spec.NumDocs {
		t.Fatalf("norms length %d", len(idx.DocNorms))
	}
	p := idx.Params
	for d := 0; d < 100; d++ {
		dl := c.DocLens[d]
		if dl == 0 {
			dl = 1
		}
		want := p.DocNorm(dl, c.AvgDocLen)
		if idx.DocNorms[d] != want {
			t.Fatalf("doc %d norm %v, want %v", d, idx.DocNorms[d], want)
		}
	}
}

func TestCursorSequentialScan(t *testing.T) {
	c := testCorpus(t)
	idx := buildHybrid(t, c)
	tp := c.Terms[3]
	cur := NewCursor(idx, idx.MustList(tp.Term))
	i := 0
	for ; cur.Valid(); cur.Next() {
		if cur.Doc() != tp.Postings[i].DocID || cur.TF() != tp.Postings[i].TF {
			t.Fatalf("posting %d mismatch", i)
		}
		i++
	}
	if i != len(tp.Postings) {
		t.Fatalf("scanned %d postings, want %d", i, len(tp.Postings))
	}
}

func TestCursorSeekGEQ(t *testing.T) {
	c := testCorpus(t)
	idx := buildHybrid(t, c)
	tp := c.Terms[1]
	pl := idx.MustList(tp.Term)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		target := uint32(rng.Intn(c.Spec.NumDocs + 10))
		cur := NewCursor(idx, pl)
		ok := cur.SeekGEQ(target)
		// Reference answer by linear scan of the raw postings.
		wantIdx := -1
		for i, p := range tp.Postings {
			if p.DocID >= target {
				wantIdx = i
				break
			}
		}
		if (wantIdx >= 0) != ok {
			t.Fatalf("SeekGEQ(%d) ok=%v, want %v", target, ok, wantIdx >= 0)
		}
		if ok && cur.Doc() != tp.Postings[wantIdx].DocID {
			t.Fatalf("SeekGEQ(%d) = %d, want %d", target, cur.Doc(), tp.Postings[wantIdx].DocID)
		}
	}
}

func TestCursorSeekGEQMonotoneAdvance(t *testing.T) {
	c := testCorpus(t)
	idx := buildHybrid(t, c)
	pl := idx.MustList(c.Terms[0].Term)
	cur := NewCursor(idx, pl)
	rng := rand.New(rand.NewSource(9))
	target := uint32(0)
	for cur.Valid() {
		target += uint32(rng.Intn(1000))
		if !cur.SeekGEQ(target) {
			break
		}
		if cur.Doc() < target {
			t.Fatalf("cursor at %d after SeekGEQ(%d)", cur.Doc(), target)
		}
		target = cur.Doc() + 1
		cur.Next()
	}
}

func TestCursorSkipsBlocks(t *testing.T) {
	c := testCorpus(t)
	idx := buildHybrid(t, c)
	pl := idx.MustList(c.Terms[0].Term) // largest list, many blocks
	if len(pl.Blocks) < 8 {
		t.Skip("list too small to observe skipping")
	}
	decoded := 0
	cur := NewCursor(idx, pl)
	cur.OnBlock = func(int) { decoded++ }
	// Seek straight to the last block's first doc.
	last := pl.Blocks[len(pl.Blocks)-1]
	if !cur.SeekGEQ(last.FirstDoc) {
		t.Fatal("seek to last block failed")
	}
	if decoded > 2 {
		t.Fatalf("decoded %d blocks on a long seek; metadata skipping broken", decoded)
	}
}

func TestStats(t *testing.T) {
	c := testCorpus(t)
	idx := buildHybrid(t, c)
	s := idx.ComputeStats()
	if s.TotalPostings != c.TotalPostings {
		t.Fatalf("stats postings %d, corpus %d", s.TotalPostings, c.TotalPostings)
	}
	if s.CompressionRatio() <= 1 {
		t.Fatalf("compression ratio %v should exceed 1", s.CompressionRatio())
	}
	if s.MetadataBytes == 0 || s.NormBytes == 0 {
		t.Fatal("metadata/norm accounting missing")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	c := testCorpus(t)
	idx := buildHybrid(t, c)
	var buf bytes.Buffer
	n, err := idx.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.NumDocs != idx.NumDocs || len(got.Lists) != len(idx.Lists) {
		t.Fatal("header mismatch after round trip")
	}
	if !approxEqual(got.AvgDocLen, idx.AvgDocLen) {
		t.Fatal("avgdl mismatch")
	}
	for _, term := range idx.Terms() {
		a, b := idx.Lists[term], got.Lists[term]
		if b == nil {
			t.Fatalf("term %s missing after round trip", term)
		}
		if a.DF != b.DF || a.Scheme != b.Scheme || !bytes.Equal(a.Data, b.Data) {
			t.Fatalf("term %s list mismatch", term)
		}
		if len(a.Blocks) != len(b.Blocks) {
			t.Fatalf("term %s block count mismatch", term)
		}
		for i := range a.Blocks {
			ab, bb := a.Blocks[i], b.Blocks[i]
			if ab.FirstDoc != bb.FirstDoc || ab.LastDoc != bb.LastDoc ||
				ab.Offset != bb.Offset || ab.Length != bb.Length || ab.Count != bb.Count {
				t.Fatalf("term %s block %d mismatch", term, i)
			}
			if !approxEqual(ab.MaxScore, bb.MaxScore) {
				t.Fatalf("term %s block %d max score mismatch", term, i)
			}
		}
	}
	for d := range idx.DocNorms {
		if !approxEqual(idx.DocNorms[d], got.DocNorms[d]) {
			t.Fatalf("norm %d mismatch", d)
		}
	}
	// Decoding must work identically on the deserialized index.
	pl := got.MustList("t0")
	docsA, tfsA := idx.DecodeBlock(idx.MustList("t0"), 0, nil, nil)
	docsB, tfsB := got.DecodeBlock(pl, 0, nil, nil)
	if !reflect.DeepEqual(docsA, docsB) || !reflect.DeepEqual(tfsA, tfsB) {
		t.Fatal("decode mismatch after round trip")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOTANIDX"))); err == nil {
		t.Fatal("Read accepted bad magic")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("Read accepted empty input")
	}
	// Truncated valid prefix.
	c := corpus.Generate(corpus.CCNewsLike(0.002))
	idx := buildHybrid(t, c)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Fatal("Read accepted truncated index")
	}
}

func TestBuildWithExplicitParams(t *testing.T) {
	c := corpus.Generate(corpus.CCNewsLike(0.002))
	p := score.Params{K1: 2.0, B: 0.5}
	idx := Build(c, BuildOptions{Scheme: compress.VB, Params: p})
	if idx.Params != p {
		t.Fatalf("params = %+v", idx.Params)
	}
	if idx.MustList("t0").Scheme != compress.VB {
		t.Fatal("explicit scheme not honored")
	}
}

func TestMustListPanics(t *testing.T) {
	c := corpus.Generate(corpus.CCNewsLike(0.002))
	idx := buildHybrid(t, c)
	defer func() {
		if recover() == nil {
			t.Fatal("MustList on missing term should panic")
		}
	}()
	idx.MustList("definitely-not-a-term")
}

func TestSmallBlockSize(t *testing.T) {
	c := corpus.Generate(corpus.CCNewsLike(0.002))
	idx := Build(c, BuildOptions{Scheme: compress.SchemeHybrid, BlockSize: 16})
	pl := idx.MustList("t0")
	if len(pl.Blocks) < pl.DF/16 {
		t.Fatalf("blocks %d for df %d at block size 16", len(pl.Blocks), pl.DF)
	}
	var docs []uint32
	docs, _ = idx.DecodeBlock(pl, 0, docs, nil)
	if len(docs) != 16 {
		t.Fatalf("first block has %d docs", len(docs))
	}
}

func BenchmarkBuildIndex(b *testing.B) {
	c := corpus.Generate(corpus.CCNewsLike(0.005))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(c, BuildOptions{Scheme: compress.SchemeHybrid})
	}
}

func BenchmarkCursorScan(b *testing.B) {
	c := corpus.Generate(corpus.CCNewsLike(0.005))
	idx := Build(c, BuildOptions{Scheme: compress.SchemeHybrid})
	pl := idx.MustList("t0")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := NewCursor(idx, pl)
		n := 0
		for ; cur.Valid(); cur.Next() {
			n++
		}
		if n != pl.DF {
			b.Fatal("bad scan")
		}
	}
}

// TestBuildDecodeQuickProperty builds indexes from randomized posting lists
// across schemes and block sizes, checking every posting round-trips and
// SeekGEQ agrees with linear search.
func TestBuildDecodeQuickProperty(t *testing.T) {
	f := func(seed int64, blockSeed uint8, schemeSeed uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		numDocs := 64 + rng.Intn(2000)
		numTerms := 1 + rng.Intn(6)
		// 1..255: PFD stores the block's value count in one byte, so 256-
		// posting blocks are not an encodable configuration.
		blockSize := 1 + int(blockSeed)%255

		c := &corpus.Corpus{
			Spec:    corpus.Spec{Name: "prop", NumDocs: numDocs, NumTerms: numTerms},
			DocLens: make([]uint32, numDocs),
		}
		for t := 0; t < numTerms; t++ {
			df := 1 + rng.Intn(numDocs/2)
			seen := map[uint32]bool{}
			var ps []corpus.Posting
			for len(ps) < df {
				d := uint32(rng.Intn(numDocs))
				if seen[d] {
					continue
				}
				seen[d] = true
				tf := uint32(1 + rng.Intn(30))
				ps = append(ps, corpus.Posting{DocID: d, TF: tf})
				c.DocLens[d] += tf
			}
			sort.Slice(ps, func(i, j int) bool { return ps[i].DocID < ps[j].DocID })
			c.Terms = append(c.Terms, corpus.TermPostings{Term: fmt.Sprintf("t%d", t), Postings: ps})
			c.TotalPostings += int64(len(ps))
		}
		var total uint64
		for _, l := range c.DocLens {
			total += uint64(l)
		}
		c.AvgDocLen = float64(total) / float64(numDocs)
		if c.AvgDocLen == 0 {
			c.AvgDocLen = 1
		}

		schemes := append(compress.AllSchemes(), compress.SchemeHybrid)
		scheme := schemes[int(schemeSeed)%len(schemes)]
		if scheme == compress.S16 {
			scheme = compress.SchemeHybrid // S16 cannot hold arbitrary deltas alone
		}
		idx := Build(c, BuildOptions{Scheme: scheme, BlockSize: blockSize})

		for ti := range c.Terms {
			tp := &c.Terms[ti]
			pl := idx.MustList(tp.Term)
			var docs, tfs []uint32
			for b := range pl.Blocks {
				docs, tfs = idx.DecodeBlock(pl, b, docs, tfs)
			}
			if len(docs) != len(tp.Postings) {
				return false
			}
			for i, p := range tp.Postings {
				if docs[i] != p.DocID || tfs[i] != p.TF {
					return false
				}
			}
			// Spot-check SeekGEQ against linear search.
			for trial := 0; trial < 5; trial++ {
				target := uint32(rng.Intn(numDocs + 2))
				cur := NewCursor(idx, pl)
				ok := cur.SeekGEQ(target)
				wantIdx := -1
				for i, p := range tp.Postings {
					if p.DocID >= target {
						wantIdx = i
						break
					}
				}
				if (wantIdx >= 0) != ok {
					return false
				}
				if ok && cur.Doc() != tp.Postings[wantIdx].DocID {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// approxEqual allows for float32 rounding introduced by serialization.
func approxEqual(a, b float64) bool {
	diff := math.Abs(a - b)
	return diff <= 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
