package core

import (
	"errors"
	"testing"

	"boss/internal/cache"
	"boss/internal/compress"
	"boss/internal/corpus"
	"boss/internal/engine"
	"boss/internal/index"
	"boss/internal/perf"
	"boss/internal/query"
)

// sparseFixture builds a corpus plus an impact-quantized hybrid index.
func sparseFixture(t testing.TB, scale float64) (*corpus.Corpus, *index.Index) {
	t.Helper()
	c := corpus.Generate(corpus.CCNewsLike(scale))
	idx := index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid, Impacts: true})
	return c, idx
}

// TestSparseOverlapWithFloatBM25: the quantized impact ranking must agree
// with exact float BM25 (the software engine's exhaustive union over the
// same terms) on at least 99% of top-10 slots across a seeded Q7 workload.
// Byte equality is not expected — 8-bit quantization may swap near-ties —
// but the overlap bound pins the quantization error budget.
func TestSparseOverlapWithFloatBM25(t *testing.T) {
	const k = 10
	c, idx := sparseFixture(t, 0.008)
	acc := New(idx, DefaultOptions())
	eng := engine.New(idx)
	qs := corpus.SampleQueries(c, corpus.Q7, 200, 4321)
	var common, total int
	for _, q := range qs {
		node := query.MustParse(q.Expr)
		got, err := acc.Exec(nil, node.Plan(), k)
		if err != nil {
			t.Fatalf("%s: %v", q.Expr, err)
		}
		want, err := eng.Run(node, k)
		if err != nil {
			t.Fatal(err)
		}
		ref := make(map[uint32]bool, len(want.TopK))
		for _, e := range want.TopK {
			ref[e.DocID] = true
		}
		for _, e := range got.TopK {
			if ref[e.DocID] {
				common++
			}
		}
		total += len(want.TopK)
	}
	if total == 0 {
		t.Fatal("empty workload")
	}
	overlap := float64(common) / float64(total)
	if overlap < 0.99 {
		t.Fatalf("top-%d overlap with float BM25 = %.4f (%d/%d), want >= 0.99",
			k, overlap, common, total)
	}
}

// TestSparsePrunedByteIdentical: MaxScore pruning is an optimization, not
// an approximation. Across a seeded 1000-query sweep the pruned top-k must
// equal the exhaustive top-k exactly — same docIDs, same scores, same
// order. (Strict-< pruning never abandons a cutoff tie, and both runs
// visit candidates in ascending docID with the same tie-break.)
func TestSparsePrunedByteIdentical(t *testing.T) {
	const k = 10
	c, idx := sparseFixture(t, 0.004)
	pruned := New(idx, DefaultOptions())
	exh := New(idx, ExhaustiveOptions())
	qs := corpus.SampleQueries(c, corpus.Q7, 1000, 99)
	var skipped int64
	for _, q := range qs {
		po, err := pruned.Exec(nil, query.Plan{Terms: q.Terms}, k)
		if err != nil {
			t.Fatalf("%v: %v", q.Terms, err)
		}
		eo, err := exh.Exec(nil, query.Plan{Terms: q.Terms}, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(po.TopK) != len(eo.TopK) {
			t.Fatalf("%v: pruned %d results, exhaustive %d", q.Terms, len(po.TopK), len(eo.TopK))
		}
		for i := range po.TopK {
			if po.TopK[i] != eo.TopK[i] {
				t.Fatalf("%v: rank %d diverged: pruned %+v exhaustive %+v",
					q.Terms, i, po.TopK[i], eo.TopK[i])
			}
		}
		if po.M.PostingsDecoded > eo.M.PostingsDecoded {
			t.Fatalf("%v: pruned decoded more postings (%d) than exhaustive (%d)",
				q.Terms, po.M.PostingsDecoded, eo.M.PostingsDecoded)
		}
		skipped += po.M.BlocksSkipped
	}
	if skipped == 0 {
		t.Fatal("pruning never skipped a block across 1000 queries; MaxScore is not engaging")
	}
}

// TestSparseChargesCacheIndependent: the impact-read scorer's cache-hit
// arm must replay the same simulated charges the cold path records — the
// decoded-block cache is a host-side optimization invisible to the model.
func TestSparseChargesCacheIndependent(t *testing.T) {
	c, idx := sparseFixture(t, 0.004)
	qs := corpus.SampleQueries(c, corpus.Q7, 20, 7)
	run := func(ch *cache.Cache) *perf.Metrics {
		acc := NewCached(idx, DefaultOptions(), ch)
		total := perf.NewMetrics()
		for pass := 0; pass < 2; pass++ { // second pass hits the warm cache
			for _, q := range qs {
				out, err := acc.Exec(nil, query.Plan{Terms: q.Terms}, 10)
				if err != nil {
					t.Fatal(err)
				}
				total.Merge(out.M)
			}
		}
		return total
	}
	plain := run(nil)
	cached := run(cache.NewSharded(32<<20, 2))
	if *plain != *cached {
		t.Fatalf("sparse charges diverge with cache:\nplain:  %+v\ncached: %+v", plain, cached)
	}
}

// TestSparseHitPathAllocs pins the Q7 cache-hit path's allocation budget:
// a warm sparse Exec performs exactly the constant per-query envelope
// (metrics record, selector results, Result copy) and the per-posting /
// per-block hot path contributes zero — the count must not move when the
// query processes an order of magnitude more postings.
func TestSparseHitPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race randomizes sync.Pool reuse, defeating the warm envelope")
	}
	_, idx := sparseFixture(t, 0.01)
	acc := NewCached(idx, DefaultOptions(), cache.NewSharded(64<<20, 2))
	short := []string{"t300"}
	long := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
	for i := 0; i < 3; i++ { // warm the cache and every pooled scratch buffer
		if _, err := acc.Exec(nil, query.Plan{Terms: short}, 10); err != nil {
			t.Fatal(err)
		}
		if _, err := acc.Exec(nil, query.Plan{Terms: long}, 10); err != nil {
			t.Fatal(err)
		}
	}
	a := testing.AllocsPerRun(400, func() {
		if _, err := acc.Exec(nil, query.Plan{Terms: short}, 10); err != nil {
			t.Fatal(err)
		}
	})
	b := testing.AllocsPerRun(400, func() {
		if _, err := acc.Exec(nil, query.Plan{Terms: long}, 10); err != nil {
			t.Fatal(err)
		}
	})
	const envelope = 3
	if a > envelope || b > envelope {
		t.Fatalf("warm sparse Exec allocates %.2f (1 term) / %.2f (8 terms) allocs/op, want <= %d", a, b, envelope)
	}
	if b != a {
		t.Fatalf("allocs scale with postings processed (%.2f vs %.2f); hot path must contribute 0", a, b)
	}
}

// TestSparseErrNoImpacts: running Q7 against an index built without
// quantized impacts fails with the typed error, naming the build option.
func TestSparseErrNoImpacts(t *testing.T) {
	c := corpus.Generate(corpus.CCNewsLike(0.004))
	idx := index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid}) // no Impacts
	acc := New(idx, DefaultOptions())
	if _, err := acc.Exec(nil, query.Plan{Terms: []string{"t1", "t2"}}, 10); !errors.Is(err, ErrNoImpacts) {
		t.Fatalf("err = %v, want ErrNoImpacts", err)
	}
	if _, err := acc.Exec(nil, query.Plan{Terms: []string{"zzz-missing"}}, 10); err == nil {
		t.Fatal("expected error for unknown term")
	}
}

// TestPlanSparse: the introspection API reports lists sorted ascending by
// dequantized bound, cumulative prefix bounds, and a partition that moves
// as the threshold rises.
func TestPlanSparse(t *testing.T) {
	_, idx := sparseFixture(t, 0.004)
	acc := New(idx, DefaultOptions())
	terms := []string{"t1", "t5", "t20", "t100"}
	cold, err := acc.PlanSparse(terms, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Essential != 0 {
		t.Fatalf("cold plan (threshold 0) pruned %d lists; all must be essential", cold.Essential)
	}
	var prev, sum float64
	for i, ti := range cold.Terms {
		if ti.MaxImpact < prev {
			t.Fatalf("plan not sorted ascending by bound at %d: %+v", i, cold.Terms)
		}
		prev = ti.MaxImpact
		sum += ti.MaxImpact
		if ti.Prefix != sum {
			t.Fatalf("prefix[%d] = %v, want cumulative %v", i, ti.Prefix, sum)
		}
	}
	hot, err := acc.PlanSparse(terms, cold.Terms[0].MaxImpact+1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if hot.Essential == 0 {
		t.Fatal("raising the threshold above the weakest list's bound must demote it")
	}
}

// BenchmarkRunSparse is the MaxScore operator's microbenchmark and, since
// bench/ has no -cpuprofile flag, its profiling entry point:
//
//	go test -run NONE -bench RunSparse -cpuprofile cpu.out ./internal/core
//
// It replays the sparse-q7 workload's shape below the facade: the bench
// corpus, Zipf-sampled 8-term Q7 queries, k = 10, a warm cache that holds
// the working set. postings/op is PostingsDecoded, so ns/op ÷ postings/op
// (reported as ns/posting) is the per-decoded-posting cost ROADMAP item 5(a)
// tracks; docs/op is the candidates that survived to scoring.
func BenchmarkRunSparse(b *testing.B) {
	c := corpus.Generate(corpus.ClueWebLike(0.25))
	idx := index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid, Impacts: true})
	qs := corpus.SampleZipfQueries(c, corpus.Q7, 256, 1.07, 42)
	for _, bc := range []struct {
		name string
		opts Options
	}{
		{"pruned", DefaultOptions()},
		{"exhaustive", ExhaustiveOptions()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			acc := NewCached(idx, bc.opts, cache.NewSharded(256<<20, 2))
			for _, q := range qs { // warm the cache and the pooled run
				if _, err := acc.Exec(nil, query.Plan{Terms: q.Terms}, 10); err != nil {
					b.Fatal(err)
				}
			}
			var postings, docs int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := acc.Exec(nil, query.Plan{Terms: qs[i%len(qs)].Terms}, 10)
				if err != nil {
					b.Fatal(err)
				}
				postings += res.M.PostingsDecoded
				docs += res.M.DocsEvaluated
			}
			b.ReportMetric(float64(postings)/float64(b.N), "postings/op")
			b.ReportMetric(float64(docs)/float64(b.N), "docs/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(postings), "ns/posting")
		})
	}
}
