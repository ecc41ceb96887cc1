package engine

import (
	"testing"

	"boss/internal/compress"
	"boss/internal/corpus"
	"boss/internal/index"
	"boss/internal/mem"
	"boss/internal/oracle"
	"boss/internal/query"
)

// testFixture builds a small corpus + index shared across tests.
type testFixture struct {
	c   *corpus.Corpus
	idx *index.Index
	eng *Engine
}

func newFixture(t testing.TB) *testFixture {
	t.Helper()
	c := corpus.Generate(corpus.CCNewsLike(0.004))
	idx := index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid})
	return &testFixture{c: c, idx: idx, eng: New(idx)}
}

func queryExprsForTests(c *corpus.Corpus) []string {
	var exprs []string
	for _, qt := range corpus.AllQueryTypes() {
		for _, q := range corpus.SampleQueries(c, qt, 6, 31) {
			exprs = append(exprs, q.Expr)
		}
	}
	return exprs
}

func TestEngineUnknownTerm(t *testing.T) {
	f := newFixture(t)
	if _, err := f.eng.Run(query.MustParse(`"nosuchterm"`), 10); err == nil {
		t.Fatal("unknown term should error")
	}
}

func TestUnionEvaluatesEveryMatchingDoc(t *testing.T) {
	// The software baseline is exhaustive for unions: DocsEvaluated equals
	// the exact union size.
	f := newFixture(t)
	node := query.MustParse(`"t3" OR "t15"`)
	res, err := f.eng.Run(node, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := len(oracle.Eval(f.c, f.idx, node.Plan(), f.idx.NumDocs, false))
	if res.M.DocsEvaluated != int64(want) {
		t.Fatalf("evaluated %d docs, union has %d", res.M.DocsEvaluated, want)
	}
}

func TestIntersectionSkipsBlocks(t *testing.T) {
	f := newFixture(t)
	// Intersect a huge list with a rare one: the engine must not decode
	// every block of the huge list.
	rare := f.c.Terms[len(f.c.Terms)-1].Term
	common := f.c.Terms[0].Term
	node := query.MustParse(`"` + common + `" AND "` + rare + `"`)
	res, err := f.eng.Run(node, 10)
	if err != nil {
		t.Fatal(err)
	}
	commonBlocks := int64(len(f.idx.MustList(common).Blocks))
	if res.M.BlocksFetched >= commonBlocks {
		t.Fatalf("fetched %d blocks; SvS skipping should beat the %d-block full scan",
			res.M.BlocksFetched, commonBlocks)
	}
}

func TestIntersectionCheaperThanUnion(t *testing.T) {
	// Use lists of very different sizes: SvS drives from the rare list, so
	// the conjunction does far less work than the exhaustive union.
	f := newFixture(t)
	a, b := f.c.Terms[1].Term, f.c.Terms[40].Term
	and, err := f.eng.Run(query.MustParse(`"`+a+`" AND "`+b+`"`), 10)
	if err != nil {
		t.Fatal(err)
	}
	or, err := f.eng.Run(query.MustParse(`"`+a+`" OR "`+b+`"`), 10)
	if err != nil {
		t.Fatal(err)
	}
	if and.M.DocsEvaluated >= or.M.DocsEvaluated {
		t.Fatal("AND must evaluate fewer docs than OR on the same terms")
	}
	if and.M.ComputeTime >= or.M.ComputeTime {
		t.Fatal("AND should be cheaper in compute than OR on the same terms")
	}
}

func TestMetricsAccounting(t *testing.T) {
	f := newFixture(t)
	res, err := f.eng.Run(query.MustParse(`"t5"`), 10)
	if err != nil {
		t.Fatal(err)
	}
	pl := f.idx.MustList("t5")
	wantBlocks := int64(len(pl.Blocks))
	if res.M.BlocksFetched != wantBlocks {
		t.Fatalf("single-term scan fetched %d blocks, list has %d", res.M.BlocksFetched, wantBlocks)
	}
	if res.M.PostingsDecoded != int64(pl.DF) {
		t.Fatalf("decoded %d postings, df is %d", res.M.PostingsDecoded, pl.DF)
	}
	wantBytes := int64(len(pl.Data)) + wantBlocks*index.BlockMetaBytes
	if res.M.Cat[mem.CatLoadList] != wantBytes {
		t.Fatalf("LD List = %d bytes, want %d", res.M.Cat[mem.CatLoadList], wantBytes)
	}
	if res.M.ComputeTime <= 0 {
		t.Fatal("no compute time charged")
	}
	// The software baseline materializes nothing.
	if res.M.Cat[mem.CatStoreInter] != 0 || res.M.Cat[mem.CatLoadInter] != 0 {
		t.Fatal("software DAAT should not spill intermediates")
	}
}

func TestEngineIsComputeBound(t *testing.T) {
	// The defining property of the baseline (Figure 16): latency barely
	// changes between SCM and DRAM because compute dominates.
	f := newFixture(t)
	var exprs = queryExprsForTests(f.c)
	for _, expr := range exprs[:12] {
		res, err := f.eng.Run(query.MustParse(expr), 100)
		if err != nil {
			t.Fatal(err)
		}
		scm := res.M.Latency(mem.HostSCM())
		dram := res.M.Latency(mem.HostDRAM())
		gain := float64(scm) / float64(dram)
		if gain > 1.2 {
			t.Fatalf("query %s: DRAM speeds the software baseline by %.2fx; it should be compute-bound", expr, gain)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	f := newFixture(t)
	node := query.MustParse(`"t2" AND ("t7" OR "t9" OR "t11")`)
	r1, err := f.eng.Run(node, 25)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f.eng.Run(node, 25)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.Same(r1.TopK, r2.TopK); err != nil {
		t.Fatalf("same query produced different results: %v", err)
	}
	if r1.M.ComputeTime != r2.M.ComputeTime || r1.M.SeqReadBytes != r2.M.SeqReadBytes {
		t.Fatal("same query produced different metrics")
	}
}

func BenchmarkEngineQ3(b *testing.B) {
	f := newFixture(b)
	node := query.MustParse(`"t1" OR "t4"`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.eng.Run(node, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWANDEngineMatchesExhaustive(t *testing.T) {
	f := newFixture(t)
	wand := New(f.idx)
	wand.EnableWAND()
	for _, qt := range []corpus.QueryType{corpus.Q1, corpus.Q3, corpus.Q5} {
		for _, q := range corpus.SampleQueries(f.c, qt, 8, 55) {
			node := query.MustParse(q.Expr)
			for _, k := range []int{1, 5, 40} {
				a, err := wand.Run(node, k)
				if err != nil {
					t.Fatal(err)
				}
				b, err := f.eng.Run(node, k)
				if err != nil {
					t.Fatal(err)
				}
				if err := oracle.Same(a.TopK, b.TopK); err != nil {
					t.Fatalf("%s k=%d: WAND engine changed the result set: %v", q.Expr, k, err)
				}
			}
		}
	}
}

func TestWANDEngineEvaluatesFewerDocs(t *testing.T) {
	f := newFixture(t)
	wand := New(f.idx)
	wand.EnableWAND()
	node := query.MustParse(`"t0" OR "t1" OR "t2" OR "t3"`)
	a, err := wand.Run(node, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.eng.Run(node, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.M.DocsEvaluated >= b.M.DocsEvaluated {
		t.Fatalf("WAND evaluated %d docs, exhaustive %d", a.M.DocsEvaluated, b.M.DocsEvaluated)
	}
}

func TestWANDEngineFallsBackOnNonUnions(t *testing.T) {
	f := newFixture(t)
	wand := New(f.idx)
	wand.EnableWAND()
	for _, expr := range []string{`"t0" AND "t1"`, `"t0" AND ("t1" OR "t2")`} {
		node := query.MustParse(expr)
		a, err := wand.Run(node, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := f.eng.Run(node, 10)
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.Same(a.TopK, b.TopK); err != nil {
			t.Fatalf("%s: WAND mode changed non-union results: %v", expr, err)
		}
	}
}

func TestWANDEngineUnknownTerm(t *testing.T) {
	f := newFixture(t)
	wand := New(f.idx)
	wand.EnableWAND()
	if _, err := wand.Run(query.MustParse(`"t0" OR "missing"`), 5); err == nil {
		t.Fatal("unknown term should error in WAND mode")
	}
}
