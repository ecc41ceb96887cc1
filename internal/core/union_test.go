package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"boss/internal/cache"
	"boss/internal/compress"
	"boss/internal/corpus"
	"boss/internal/docstore"
	"boss/internal/index"
	"boss/internal/oracle"
	"boss/internal/perf"
	"boss/internal/query"
	"boss/internal/topk"
)

// denseUnionSpec is a hand-built corpus whose lists overlap heavily: a few
// hundred documents, the most common term in 85% of them and a flat DF curve
// below it, so most documents sit in three or more of a query's lists at
// once. The default corpora make two thirds of their union decisions with a
// single stream under the cursor; this one makes the union module's sorter
// break docID ties and score multi-stream matches on nearly every decision.
func denseUnionSpec(docs, terms int, seed int64) corpus.Spec {
	return corpus.Spec{
		Name:       "dense-union",
		NumDocs:    docs,
		NumTerms:   terms,
		TopDF:      0.85,
		ZipfS:      0.35,
		MaxTF:      16,
		Clustering: 0.2,
		Seed:       seed,
	}
}

// denseUnionExprs query denseUnionSpec(400, 8, …) deliberately out of DF
// (= rank) order.
var denseUnionExprs = []string{
	unionExpr(5, 2, 7, 0, 3, 6, 1, 4),
	unionExpr(7, 6, 5, 4, 3, 2, 1, 0),
	unionExpr(3, 0, 6, 1, 5, 2),
	unionExpr(4, 1, 7),
	unionExpr(6, 0),
}

// quotedTerms renders the terms of the given ranks as the parser reads them.
func quotedTerms(ranks []int) []string {
	terms := make([]string, len(ranks))
	for i, r := range ranks {
		terms[i] = fmt.Sprintf("%q", fmt.Sprintf("t%d", r))
	}
	return terms
}

// unionExpr renders an OR over the given term ranks, in the given order.
func unionExpr(ranks ...int) string { return strings.Join(quotedTerms(ranks), " OR ") }

// unionPruneArms are the early-termination settings a union can run under
// besides the exhaustive one.
var unionPruneArms = []struct {
	name string
	opts Options
}{
	{"boss", DefaultOptions()},
	{"block-only", BlockOnlyOptions()},
	{"doc-only", Options{DocET: true}},
}

// requireSameTopK requires two top-k lists to be equal entry by entry: same
// docID, same score bit pattern, same order (oracle.Same).
func requireSameTopK(t testing.TB, what string, got, want []topk.Entry) {
	t.Helper()
	if err := oracle.Same(got, want); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// requireUnionByteIdentical runs node under opts and under the exhaustive
// options with the same arithmetic, and requires the two top-k lists to be
// equal (requireSameTopK).
func requireUnionByteIdentical(t testing.TB, idx *index.Index, node *query.Node, opts Options, k int) (pruned, exhaustive Result) {
	t.Helper()
	po, err := New(idx, opts).exec(nil, node.Plan(), k)
	if err != nil {
		t.Fatalf("%s: %v", node, err)
	}
	eo, err := New(idx, Options{FixedPoint: opts.FixedPoint}).exec(nil, node.Plan(), k)
	if err != nil {
		t.Fatalf("%s: %v", node, err)
	}
	requireSameTopK(t, fmt.Sprintf("%s k=%d %+v pruned vs exhaustive", node, k, opts), po.TopK, eo.TopK)
	return po, eo
}

// TestUnionPrunedByteIdentical: block-level and document-level early
// termination are optimizations, not approximations. Over seeded Q1/Q3/Q5
// sweeps and over a dense corpus queried out of DF order, every pruning arm
// must return the exhaustive top-k exactly — in float64 and in Q16.16 — at a
// shallow, the default and two deep k. (TestETIsSafeAcrossKValues adds
// k = 3 for three expressions.) The union module sums a document's term
// scores in query order whatever order its sorter holds the streams in;
// that, the strict block-level comparison and WAND's >= pivot test are what
// this pins.
func TestUnionPrunedByteIdentical(t *testing.T) {
	type sweep struct {
		name  string
		c     *corpus.Corpus // set when the exhaustive run is checked against oracle.Eval
		idx   *index.Index
		nodes []*query.Node
	}
	var sweeps []sweep

	c := corpus.Generate(corpus.CCNewsLike(0.004))
	s := sweep{name: "ccnews", idx: index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid})}
	for _, qt := range []corpus.QueryType{corpus.Q1, corpus.Q3, corpus.Q5} {
		for _, q := range corpus.SampleQueries(c, qt, 40, 31337) {
			s.nodes = append(s.nodes, query.MustParse(q.Expr))
		}
	}
	sweeps = append(sweeps, s)

	// Small blocks give the dense corpus many intervals per query.
	dc := corpus.Generate(denseUnionSpec(400, 8, 0xD35E))
	d := sweep{name: "dense", c: dc, idx: index.Build(dc, index.BuildOptions{Scheme: compress.SchemeHybrid, BlockSize: 16})}
	for _, expr := range denseUnionExprs {
		d.nodes = append(d.nodes, query.MustParse(expr))
	}
	sweeps = append(sweeps, d)

	for _, sw := range sweeps {
		var multi, skipped, fewer int64
		for _, arm := range unionPruneArms {
			for _, fixed := range []bool{false, true} {
				opts := arm.opts
				opts.FixedPoint = fixed
				for _, k := range []int{1, 10, 100, 1000} {
					for _, node := range sw.nodes {
						po, eo := requireUnionByteIdentical(t, sw.idx, node, opts, k)
						skipped += po.M.BlocksSkipped
						if po.M.DocsEvaluated < eo.M.DocsEvaluated {
							fewer++
						}
						if eo.M.DocsEvaluated > 0 && eo.M.PostingsDecoded >= 3*eo.M.DocsEvaluated {
							multi++
						}
					}
				}
			}
		}
		if skipped == 0 || fewer == 0 {
			t.Fatalf("%s: pruning never engaged (blocks skipped %d, runs evaluating fewer documents %d)", sw.name, skipped, fewer)
		}
		if sw.c != nil {
			// The exhaustive reference itself, against a scorer that shares
			// no code with it: query-order summation, bit for bit.
			for _, fixed := range []bool{false, true} {
				for _, node := range sw.nodes {
					res, err := New(sw.idx, Options{FixedPoint: fixed}).exec(nil, node.Plan(), 50)
					if err != nil {
						t.Fatal(err)
					}
					want := oracle.Eval(sw.c, sw.idx, node.Plan(), 50, fixed)
					requireSameTopK(t, fmt.Sprintf("%s fixed=%v exhaustive vs brute force", node, fixed), res.TopK, want)
				}
			}
		}
		if sw.name == "dense" && multi == 0 {
			t.Fatal("dense: no query averaged three matching lists per document; the multi-stream paths were not exercised")
		}
	}
}

// FuzzUnionPrunedVsExhaustive is TestUnionPrunedByteIdentical over corpora
// the fuzzer picks: seed shapes a tiny dense corpus (64–319 documents, 2–8
// terms, 4–35 postings per block) and shuffles the query's term order; k and
// the option bits (1 BlockET, 2 DocET, 4 FixedPoint, 8 HostTopK) choose the
// run. The pruned run must equal the exhaustive one and the brute-force
// scorer entry by entry, and may not evaluate more documents.
func FuzzUnionPrunedVsExhaustive(f *testing.F) {
	f.Add(int64(1), uint16(10), uint8(3))
	f.Add(int64(2), uint16(1), uint8(7))
	f.Add(int64(0xB055), uint16(100), uint8(2))
	f.Add(int64(-7), uint16(3), uint8(1))
	f.Add(int64(977), uint16(1000), uint8(11))
	f.Add(int64(42), uint16(5), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, k uint16, optionBits uint8) {
		rng := rand.New(rand.NewSource(seed))
		nTerms := 2 + rng.Intn(7)
		c := corpus.Generate(denseUnionSpec(64+rng.Intn(256), nTerms, seed))
		idx := index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid, BlockSize: 4 + rng.Intn(32)})
		node := query.MustParse(unionExpr(rng.Perm(nTerms)...))
		opts := Options{
			BlockET:    optionBits&1 != 0,
			DocET:      optionBits&2 != 0,
			FixedPoint: optionBits&4 != 0,
			HostTopK:   optionBits&8 != 0,
		}
		kk := 1 + int(k)%1024
		po, eo := requireUnionByteIdentical(t, idx, node, opts, kk)
		if po.M.DocsEvaluated > eo.M.DocsEvaluated {
			t.Fatalf("%s k=%d %+v: pruned evaluated %d documents, exhaustive %d", node, kk, opts, po.M.DocsEvaluated, eo.M.DocsEvaluated)
		}
		want := oracle.Eval(c, idx, node.Plan(), kk, opts.FixedPoint)
		requireSameTopK(t, fmt.Sprintf("%s k=%d fixed=%v exhaustive vs brute force", node, kk, opts.FixedPoint), eo.TopK, want)
	})
}

// BenchmarkRunUnion is the union module's microbenchmark and, since bench/
// has no -cpuprofile flag, its profiling entry point:
//
//	go test -run NONE -bench RunUnion -cpuprofile cpu.out ./internal/core
//
// It replays the ranked-or workload's union shapes below the pool: the bench
// corpus, Zipf-sampled Q1/Q3/Q5 queries, k = 100, a warm cache that holds the
// working set. postings/op is PostingsDecoded, so ns/op ÷ postings/op
// (reported as ns/posting) is the per-decoded-posting cost ROADMAP item 5(c)
// tracks, the number to read beside BenchmarkRunSparse's; docs/op is the
// documents the union module scored.
func BenchmarkRunUnion(b *testing.B) {
	c := corpus.Generate(corpus.ClueWebLike(0.25))
	idx := index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid})
	var dnfs [][][]string
	for _, qt := range []corpus.QueryType{corpus.Q1, corpus.Q3, corpus.Q5} {
		for _, q := range corpus.SampleZipfQueries(c, qt, 128, 1.07, 42) {
			dnfs = append(dnfs, query.MustParse(q.Expr).DNF())
		}
	}
	// Interleave the three shapes so any b.N sees the same mix.
	rand.New(rand.NewSource(42)).Shuffle(len(dnfs), func(i, j int) { dnfs[i], dnfs[j] = dnfs[j], dnfs[i] })
	for _, bc := range []struct {
		name string
		opts Options
	}{
		{"pruned", DefaultOptions()},
		{"exhaustive", ExhaustiveOptions()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			acc := NewCached(idx, bc.opts, cache.NewSharded(256<<20, 2))
			var m perf.Metrics
			var top []topk.Entry
			var err error
			for _, dnf := range dnfs { // warm the cache and the pooled run
				if top, err = acc.Exec(nil, query.Plan{DNF: dnf}, 100, &m, top[:0]); err != nil {
					b.Fatal(err)
				}
			}
			var postings, docs int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if top, err = acc.Exec(nil, query.Plan{DNF: dnfs[i%len(dnfs)]}, 100, &m, top[:0]); err != nil {
					b.Fatal(err)
				}
				postings += m.PostingsDecoded
				docs += m.DocsEvaluated
			}
			b.ReportMetric(float64(postings)/float64(b.N), "postings/op")
			b.ReportMetric(float64(docs)/float64(b.N), "docs/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(postings), "ns/posting")
		})
	}
}

// boolFamilies is one query of each boolean shape the allocation pins run.
var boolFamilies = []struct {
	name string
	dnf  [][]string
}{
	{"union-1", [][]string{{"t300"}}},
	{"union-2", [][]string{{"t1"}, {"t40"}}},
	{"union-4", [][]string{{"t0"}, {"t1"}, {"t2"}, {"t3"}}},
	{"conj-2", [][]string{{"t0", "t1"}}},
	{"conj-4", [][]string{{"t0", "t1", "t2", "t3"}}},
	{"mixed-2x2", [][]string{{"t0", "t1"}, {"t0", "t2"}}},
}

// warmRunner is Exec into one caller-owned metrics record and top-k slice,
// reused across calls: what the allocation pins measure.
func warmRunner(t *testing.T, acc *Accelerator) func(query.Plan) {
	m := new(perf.Metrics)
	top := make([]topk.Entry, 0, 10)
	return func(pl query.Plan) {
		var err error
		if top, err = acc.Exec(nil, pl, 10, m, top[:0]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunHitPathAllocs pins a warm boolean run's allocation count at zero,
// the same for a 1-, 2- and 4-term union, a 2- and 4-term conjunction and a
// two-conjunct mixed query. Planning, cursors, the candidate table and the
// top-k all live in the pooled run record, and the metrics and the top-k go
// into the caller's storage, so nothing is left to allocate whatever the term
// count or the postings processed.
func TestRunHitPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race randomizes sync.Pool reuse, defeating the warm envelope")
	}
	_, idx := sparseFixture(t, 0.01)
	run := warmRunner(t, NewCached(idx, DefaultOptions(), cache.NewSharded(64<<20, 2)))
	for i := 0; i < 3; i++ { // warm the cache and every pooled scratch buffer
		for _, f := range boolFamilies {
			run(query.Plan{DNF: f.dnf})
		}
	}
	for _, f := range boolFamilies {
		if got := testing.AllocsPerRun(200, func() { run(query.Plan{DNF: f.dnf}) }); got != 0 {
			t.Errorf("%s: warm Exec allocates %.2f allocs/op, want 0", f.name, got)
		}
	}
}

// TestUncachedRunAllocs pins the same envelope for an accelerator built
// without a cache, where every run decodes every block it fetches into
// recycled buffers: a warm run of each boolean family allocates what a cached
// one does, and a warm FetchInto through one DocBuf allocates nothing. The
// constants were measured on the tree before the uncached decode arm was
// replaced; they are what the replacement has to match.
func TestUncachedRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race randomizes sync.Pool reuse, defeating the warm envelope")
	}
	_, idx := sparseFixture(t, 0.01)
	run := warmRunner(t, New(idx, DefaultOptions()))
	for i := 0; i < 3; i++ { // warm every pooled buffer
		for _, f := range boolFamilies {
			run(query.Plan{DNF: f.dnf})
		}
	}
	const runAllocs = 0
	for _, f := range boolFamilies {
		if got := testing.AllocsPerRun(200, func() { run(query.Plan{DNF: f.dnf}) }); got != runAllocs {
			t.Errorf("%s: warm uncached Exec allocates %.2f allocs/op, want %d", f.name, got, runAllocs)
		}
	}

	ds, _ := buildDocs(t, 4*docstore.BlockDocs, 7)
	eng := NewFetchEngine(ds, nil)
	m := perf.NewMetrics()
	var buf DocBuf
	defer buf.Release()
	fetch := func(id uint32) {
		if err := eng.FetchInto(nil, id, m, &buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < ds.NumDocs; i++ { // warm the buffer for every block's size
		fetch(uint32(i))
	}
	var j uint32
	const fetchAllocs = 0
	if got := testing.AllocsPerRun(400, func() { fetch(j * 37 % uint32(ds.NumDocs)); j++ }); got != fetchAllocs {
		t.Errorf("warm uncached FetchInto allocates %.2f allocs/op, want %d", got, fetchAllocs)
	}
}
