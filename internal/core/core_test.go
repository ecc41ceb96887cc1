package core

import (
	"math"
	"testing"

	"boss/internal/compress"
	"boss/internal/corpus"
	"boss/internal/engine"
	"boss/internal/index"
	"boss/internal/mem"
	"boss/internal/query"
	"boss/internal/topk"
)

type fixture struct {
	c   *corpus.Corpus
	idx *index.Index
	eng *engine.Engine
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	c := corpus.Generate(corpus.CCNewsLike(0.004))
	idx := index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid})
	return &fixture{c: c, idx: idx, eng: engine.New(idx)}
}

// sameResults compares two top-k lists, tolerating permutations among
// entries whose scores are equal to within floating-point drift (different
// engines sum term scores in different orders for mixed queries).
func sameResults(a, b []topk.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i].Score-b[i].Score) > 1e-9 {
			return false
		}
		if a[i].DocID != b[i].DocID {
			// Accept a tie swap: the other list must contain this doc at
			// an equal score.
			found := false
			for j := range b {
				if b[j].DocID == a[i].DocID && math.Abs(a[i].Score-b[j].Score) <= 1e-9 {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
	}
	return true
}

func allVariants(idx *index.Index) map[string]*Accelerator {
	return map[string]*Accelerator{
		"boss":       New(idx, DefaultOptions()),
		"exhaustive": New(idx, ExhaustiveOptions()),
		"block-only": New(idx, BlockOnlyOptions()),
	}
}

func TestBOSSMatchesSoftwareEngine(t *testing.T) {
	f := newFixture(t)
	for name, acc := range allVariants(f.idx) {
		name, acc := name, acc
		t.Run(name, func(t *testing.T) {
			for _, qt := range corpus.AllQueryTypes() {
				for _, q := range corpus.SampleQueries(f.c, qt, 6, 1234) {
					node := query.MustParse(q.Expr)
					got, err := acc.Run(node, 20)
					if err != nil {
						t.Fatalf("%s: %v", q.Expr, err)
					}
					want, err := f.eng.Run(node, 20)
					if err != nil {
						t.Fatal(err)
					}
					if !sameResults(got.TopK, want.TopK) {
						t.Fatalf("%s (%s): BOSS disagrees with engine\n got %v\nwant %v",
							qt, q.Expr, got.TopK, want.TopK)
					}
				}
			}
		})
	}
}

func TestETIsSafeAcrossKValues(t *testing.T) {
	// Early termination must be lossless for every k, including tiny k
	// where the cutoff bites hardest.
	f := newFixture(t)
	boss := New(f.idx, DefaultOptions())
	exh := New(f.idx, ExhaustiveOptions())
	exprs := []string{
		`"t0" OR "t1"`,
		`"t0" OR "t3" OR "t9" OR "t20"`,
		`"t2"`,
	}
	for _, expr := range exprs {
		node := query.MustParse(expr)
		for _, k := range []int{1, 3, 10, 100} {
			a, err := boss.Run(node, k)
			if err != nil {
				t.Fatal(err)
			}
			b, err := exh.Run(node, k)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResults(a.TopK, b.TopK) {
				t.Fatalf("%s k=%d: ET changed the result set", expr, k)
			}
		}
	}
}

func TestUnknownTermErrors(t *testing.T) {
	f := newFixture(t)
	acc := New(f.idx, DefaultOptions())
	if _, err := acc.Run(query.MustParse(`"zzz"`), 10); err == nil {
		t.Fatal("expected error for unknown term")
	}
}

func TestBlockETSkipsBlocks(t *testing.T) {
	// A single-term query with small k: the cutoff rises to the best few
	// scores quickly, and blocks whose maximum term-score falls below it
	// are skipped without loading (the Figure 14 Q1 effect).
	f := newFixture(t)
	boss := New(f.idx, DefaultOptions())
	exh := New(f.idx, ExhaustiveOptions())
	node := query.MustParse(`"t0"`)
	a, err := boss.Run(node, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := exh.Run(node, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.M.BlocksFetched >= b.M.BlocksFetched {
		t.Fatalf("BOSS fetched %d blocks, exhaustive %d — block ET saved nothing",
			a.M.BlocksFetched, b.M.BlocksFetched)
	}
	if a.M.BlocksSkipped == 0 {
		t.Fatal("no blocks counted as skipped")
	}
	if a.M.Cat[mem.CatLoadList] >= b.M.Cat[mem.CatLoadList] {
		t.Fatal("block ET should reduce LD List bytes")
	}
}

func TestWANDReducesEvaluatedDocs(t *testing.T) {
	f := newFixture(t)
	blockOnly := New(f.idx, BlockOnlyOptions())
	full := New(f.idx, DefaultOptions())
	node := query.MustParse(`"t0" OR "t1" OR "t2" OR "t3"`)
	a, err := blockOnly.Run(node, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := full.Run(node, 10)
	if err != nil {
		t.Fatal(err)
	}
	if b.M.DocsEvaluated >= a.M.DocsEvaluated {
		t.Fatalf("WAND evaluated %d docs, block-only %d — no doc-level saving",
			b.M.DocsEvaluated, a.M.DocsEvaluated)
	}
}

func TestExhaustiveEvaluatesUnionFully(t *testing.T) {
	f := newFixture(t)
	exh := New(f.idx, ExhaustiveOptions())
	node := query.MustParse(`"t4" OR "t7"`)
	res, err := exh.Run(node, 10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.eng.Run(node, 10)
	if err != nil {
		t.Fatal(err)
	}
	// The software engine is also exhaustive for unions, so the evaluated
	// doc counts must agree exactly.
	if res.M.DocsEvaluated != want.M.DocsEvaluated {
		t.Fatalf("exhaustive BOSS evaluated %d docs, engine %d",
			res.M.DocsEvaluated, want.M.DocsEvaluated)
	}
}

func TestIntersectionSkipsNonOverlappingBlocks(t *testing.T) {
	f := newFixture(t)
	acc := New(f.idx, DefaultOptions())
	rare := f.c.Terms[len(f.c.Terms)-1].Term
	common := f.c.Terms[0].Term
	res, err := acc.Run(query.MustParse(`"`+common+`" AND "`+rare+`"`), 10)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(len(f.idx.MustList(common).Blocks) + len(f.idx.MustList(rare).Blocks))
	if res.M.BlocksFetched >= total {
		t.Fatalf("fetched %d of %d blocks; overlap check saved nothing", res.M.BlocksFetched, total)
	}
}

func TestNoIntermediateSpills(t *testing.T) {
	// BOSS's pipelined multi-term execution never touches memory for
	// intermediates — the key contrast with IIU (Figure 15).
	f := newFixture(t)
	acc := New(f.idx, DefaultOptions())
	exprs := []string{
		`"t0" AND "t1" AND "t2" AND "t3"`,
		`"t0" AND ("t1" OR "t2" OR "t3")`,
	}
	for _, expr := range exprs {
		res, err := acc.Run(query.MustParse(expr), 10)
		if err != nil {
			t.Fatal(err)
		}
		if res.M.Cat[mem.CatStoreInter] != 0 || res.M.Cat[mem.CatLoadInter] != 0 {
			t.Fatalf("%s: BOSS spilled intermediates", expr)
		}
	}
}

func TestHardwareTopKLimitsHostTraffic(t *testing.T) {
	f := newFixture(t)
	acc := New(f.idx, DefaultOptions())
	k := 25
	res, err := acc.Run(query.MustParse(`"t0" OR "t1"`), k)
	if err != nil {
		t.Fatal(err)
	}
	if res.M.HostBytes != int64(k)*resultEntryBytes {
		t.Fatalf("host traffic = %d bytes, want %d (k×8)", res.M.HostBytes, k*resultEntryBytes)
	}
	if res.M.Cat[mem.CatStoreResult] != int64(k)*resultEntryBytes {
		t.Fatalf("ST Result = %d bytes", res.M.Cat[mem.CatStoreResult])
	}
}

func TestSharedTermChargedOnceInMixedQuery(t *testing.T) {
	// Q6's DNF repeats term A in every conjunct; the block cache must
	// charge its loads once.
	f := newFixture(t)
	acc := New(f.idx, DefaultOptions())
	a := f.c.Terms[5].Term
	res, err := acc.Run(query.MustParse(`"`+a+`" AND ("t1" OR "t2" OR "t3")`), 10)
	if err != nil {
		t.Fatal(err)
	}
	aBlocks := int64(len(f.idx.MustList(a).Blocks))
	bcd := int64(len(f.idx.MustList("t1").Blocks) + len(f.idx.MustList("t2").Blocks) + len(f.idx.MustList("t3").Blocks))
	if res.M.BlocksFetched > aBlocks+bcd {
		t.Fatalf("fetched %d blocks > %d distinct blocks; shared term double-charged",
			res.M.BlocksFetched, aBlocks+bcd)
	}
}

func TestFixedPointApproximatesFloat(t *testing.T) {
	f := newFixture(t)
	fp := New(f.idx, Options{BlockET: true, DocET: true, FixedPoint: true})
	fl := New(f.idx, DefaultOptions())
	node := query.MustParse(`"t1" OR "t4"`)
	a, err := fp.Run(node, 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fl.Run(node, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Q16.16 quantization may permute near-ties; demand ≥90% overlap.
	set := make(map[uint32]bool, len(b.TopK))
	for _, e := range b.TopK {
		set[e.DocID] = true
	}
	common := 0
	for _, e := range a.TopK {
		if set[e.DocID] {
			common++
		}
	}
	if common < len(b.TopK)*9/10 {
		t.Fatalf("fixed-point top-k overlaps float top-k on only %d/%d docs", common, len(b.TopK))
	}
}

func TestComputeTimePositiveAndDeterministic(t *testing.T) {
	f := newFixture(t)
	acc := New(f.idx, DefaultOptions())
	node := query.MustParse(`"t2" AND ("t5" OR "t6" OR "t8")`)
	r1, err := acc.Run(node, 10)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := acc.Run(node, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r1.M.ComputeTime <= 0 {
		t.Fatal("no compute time")
	}
	if r1.M.ComputeTime != r2.M.ComputeTime || r1.M.SeqReadBytes != r2.M.SeqReadBytes {
		t.Fatal("runs not deterministic")
	}
}

func TestBOSSBeatsEngineOnLatency(t *testing.T) {
	// The headline claim, in miniature: on SCM, BOSS's single-core query
	// latency should beat the software engine's on union queries over
	// substantial posting lists (the paper's TREC terms are common words;
	// tiny lists are dominated by fixed overheads on both sides).
	f := newFixture(t)
	acc := New(f.idx, DefaultOptions())
	exprs := []string{
		`"t0" OR "t1" OR "t2" OR "t3"`,
		`"t1" OR "t2" OR "t4" OR "t6"`,
		`"t0" OR "t5" OR "t7" OR "t9"`,
	}
	for _, expr := range exprs {
		node := query.MustParse(expr)
		b, err := acc.Run(node, 100)
		if err != nil {
			t.Fatal(err)
		}
		e, err := f.eng.Run(node, 100)
		if err != nil {
			t.Fatal(err)
		}
		bossLat := b.M.Latency(mem.SCM())
		engLat := e.M.Latency(mem.HostSCM())
		if bossLat >= engLat {
			t.Fatalf("%s: BOSS latency %v >= engine latency %v", expr, bossLat, engLat)
		}
	}
}

func TestBOSSMoreBandwidthEfficientThanExhaustive(t *testing.T) {
	f := newFixture(t)
	boss := New(f.idx, DefaultOptions())
	exh := New(f.idx, ExhaustiveOptions())
	node := query.MustParse(`"t0" OR "t1" OR "t4" OR "t6"`)
	a, err := boss.Run(node, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := exh.Run(node, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.M.DeviceBytes() >= b.M.DeviceBytes() {
		t.Fatalf("BOSS moved %d bytes, exhaustive %d", a.M.DeviceBytes(), b.M.DeviceBytes())
	}
}

func BenchmarkBOSSQ5(b *testing.B) {
	f := newFixture(b)
	acc := New(f.idx, DefaultOptions())
	node := query.MustParse(`"t0" OR "t1" OR "t2" OR "t3"`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := acc.Run(node, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// releaseRun clears only the match records the finished run wrote, not each
// buffer's whole capacity. The property that buys — a pooled run never pins
// a previous query's term arena or posting lists — must still hold over the
// full capacity, including the high-water region a large query grew and the
// smaller ones after it never touch.
func TestReleaseRunLeavesMatchBuffersPinFree(t *testing.T) {
	f := newFixture(t)
	acc := New(f.idx, DefaultOptions())
	conj := func(terms ...string) []*index.PostingList {
		pls := make([]*index.PostingList, len(terms))
		for i, tm := range terms {
			pls[i] = f.idx.MustList(tm)
		}
		return pls
	}
	rare := f.c.Terms[len(f.c.Terms)-1].Term
	steps := [][][]*index.PostingList{
		{conj("t0", "t1")}, // large: grows buffer 0
		{conj("t0", "t1", "t2"), conj("t3"), conj("t1", "t4")}, // three buffers; nextPass compacts in place
		{conj("t0", rare)}, // small: most of buffer 0 untouched
		{conj(rare)},
	}
	grown := false
	for i, conjuncts := range steps {
		r := acc.newRun(10, 4)
		r.mixed(conjuncts)
		if r.err != nil {
			t.Fatal(r.err)
		}
		acc.releaseRun(r)
		for bi, b := range r.matchBufs {
			grown = grown || cap(b) > 0
			for j, m := range b[:cap(b)] {
				if m.terms != nil {
					t.Fatalf("step %d: buffer %d (len %d, cap %d) still holds a match at %d after releaseRun", i, bi, len(b), cap(b), j)
				}
			}
		}
	}
	if !grown {
		t.Fatal("no match buffer ever grew: the test exercised nothing")
	}
}
