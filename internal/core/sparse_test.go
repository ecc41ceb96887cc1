package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"boss/internal/cache"
	"boss/internal/compress"
	"boss/internal/corpus"
	"boss/internal/engine"
	"boss/internal/index"
	"boss/internal/mem"
	"boss/internal/oracle"
	"boss/internal/perf"
	"boss/internal/query"
	"boss/internal/score"
	"boss/internal/topk"
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
// equal the exhaustive top-k exactly — same docIDs, same score bits, same
// order — and the exhaustive top-k must equal oracle.Eval's. (Strict-<
// pruning never abandons a cutoff tie, and both runs visit candidates in
// ascending docID with the same tie-break.) Both runs take the essential
// lists a docID window at a time, so the fixture's docIDs span at least four
// windows and the brute-force arm is what checks the window code itself.
func TestSparsePrunedByteIdentical(t *testing.T) {
	const k = 10
	c, idx := sparseFixture(t, 0.03)
	if idx.NumDocs < 4*sparseSpan {
		t.Fatalf("fixture holds %d documents, fewer than four %d-docID windows", idx.NumDocs, sparseSpan)
	}
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
		requireSameTopK(t, fmt.Sprintf("%v pruned vs exhaustive", q.Terms), po.TopK, eo.TopK)
		requireSameTopK(t, fmt.Sprintf("%v exhaustive vs brute force", q.Terms), eo.TopK, oracle.Eval(nil, idx, query.Plan{Terms: q.Terms}, k, false))
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

// sparseWindowSpec is a corpus for the sparse driver's windows: docs
// documents, terms terms, the most common in topDF of the documents. A small
// topDF with long blocks gives windows the span cuts; a large one, windows
// the block ends cut, with most documents in several lists.
func sparseWindowSpec(docs, terms int, topDF float64, seed int64) corpus.Spec {
	return corpus.Spec{
		Name:       "sparse-windows",
		NumDocs:    docs,
		NumTerms:   terms,
		TopDF:      topDF,
		ZipfS:      0.5,
		MaxTF:      16,
		Clustering: 0.3,
		Seed:       seed,
	}
}

// sparseTerms names the terms of the given ranks, in the given order.
func sparseTerms(ranks []int) []string {
	terms := make([]string, len(ranks))
	for i, r := range ranks {
		terms[i] = fmt.Sprintf("t%d", r)
	}
	return terms
}

// FuzzSparseVsBruteForce is TestSparsePrunedByteIdentical over corpora the
// fuzzer picks: seed shapes a corpus spanning two to five windows (8,192 to
// 20,479 documents, 2–8 terms, the most common in 0.1–63% of the documents,
// 4–35 postings per block) and shuffles the query's term order; k and the
// option bits (1 BlockET, 2 DocET, 4 HostTopK) choose the run. The run must
// equal the exhaustive one and oracle.Eval entry by entry, docID and
// score bits, and may not score more documents than the exhaustive one.
func FuzzSparseVsBruteForce(f *testing.F) {
	f.Add(int64(1), uint16(10), uint8(3))
	f.Add(int64(2), uint16(1), uint8(7))
	f.Add(int64(0xB055), uint16(100), uint8(2))
	f.Add(int64(-7), uint16(3), uint8(1))
	f.Add(int64(977), uint16(1000), uint8(6))
	f.Add(int64(42), uint16(5), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, k uint16, optionBits uint8) {
		rng := rand.New(rand.NewSource(seed))
		nTerms := 2 + rng.Intn(7)
		docs := 2*sparseSpan + rng.Intn(3*sparseSpan)
		topDF := math.Pow(10, -3+2.8*rng.Float64())
		c := corpus.Generate(sparseWindowSpec(docs, nTerms, topDF, seed))
		idx := index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid, BlockSize: 4 + rng.Intn(32), Impacts: true})
		terms := sparseTerms(rng.Perm(nTerms))
		opts := Options{
			BlockET:  optionBits&1 != 0,
			DocET:    optionBits&2 != 0,
			HostTopK: optionBits&4 != 0,
		}
		kk := 1 + int(k)%1024
		po, err := New(idx, opts).Exec(nil, query.Plan{Terms: terms}, kk)
		if err != nil {
			t.Fatalf("%v: %v", terms, err)
		}
		eo, err := New(idx, ExhaustiveOptions()).Exec(nil, query.Plan{Terms: terms}, kk)
		if err != nil {
			t.Fatalf("%v: %v", terms, err)
		}
		what := fmt.Sprintf("%v k=%d %+v", terms, kk, opts)
		requireSameTopK(t, what+" pruned vs exhaustive", po.TopK, eo.TopK)
		requireSameTopK(t, what+" exhaustive vs brute force", eo.TopK, oracle.Eval(nil, idx, query.Plan{Terms: terms}, kk, false))
		if po.M.DocsEvaluated > eo.M.DocsEvaluated {
			t.Fatalf("%s: pruned scored %d documents, exhaustive %d", what, po.M.DocsEvaluated, eo.M.DocsEvaluated)
		}
	})
}

// sparseOn runs a sparse query on run record r as runSparse runs one on the
// record the pool hands it, and readies r for reuse as releaseRun does —
// without giving it back to the pool, so the next call runs on the same
// record.
func sparseOn(r *run, terms []string, k int) (Result, error) {
	r.begin(k)
	defer r.release()
	var err error
	if r.planLists, err = r.acc.resolveSparse(r.planLists, terms); err != nil {
		return Result{}, err
	}
	r.nTerms = len(r.planLists)
	r.sparse(r.planLists)
	if r.err != nil {
		return Result{}, r.err
	}
	return Result{TopK: r.sel.Results(), M: r.m}, nil
}

// windowClean reports whether a run record's window scratch is all zero, as
// the driver must leave it on every return.
func windowClean(r *run) bool {
	return r.winSum == [sparseSpan]score.Fixed{} && r.winCnt == [sparseSpan]uint8{} && r.winBits == [sparseSpan / 64]uint64{}
}

// thresholdPasses returns the first document at which the exact top-k
// threshold over the documents up to it exceeds bound — the candidate at
// which a pruned run demotes a list whose prefix bound is bound, since after
// each candidate the top-k holds exactly the best k documents so far — or
// false if it never does.
func thresholdPasses(idx *index.Index, terms []string, k int, bound float64) (uint32, bool) {
	all := oracle.Eval(nil, idx, query.Plan{Terms: terms}, idx.NumDocs, false)
	slices.SortFunc(all, func(a, b topk.Entry) int { return cmp.Compare(a.DocID, b.DocID) })
	sel := topk.NewHeap(k)
	for _, e := range all {
		if sel.Insert(e.DocID, e.Score); sel.Threshold() > bound {
			return e.DocID, true
		}
	}
	return 0, false
}

// TestSparseWindowEdges drives the sparse driver's window code down each of
// its edges and holds every answer to oracle.Eval:
//
//   - span: lists so sparse that every block spans more docIDs than a
//     window, so windows end at the span, not at a block end;
//   - take-back: one window over a dense corpus (one block per list), so
//     every demotion lands mid-window on a list with postings still ahead
//     in it;
//   - stop: a run that ends on ess == n mid-window — only an understated
//     list bound gets there — then a different query on the same run record;
//   - fault: a run failed mid-window by an uncorrectable block of a list
//     that only a probe reaches, then a clean query on the same record and
//     accelerator.
//
// The last two also require the record's window scratch to be zero after
// the early exit.
func TestSparseWindowEdges(t *testing.T) {
	check := func(t *testing.T, acc *Accelerator, idx *index.Index, terms []string, k int) Result {
		t.Helper()
		res, err := acc.Exec(nil, query.Plan{Terms: terms}, k)
		if err != nil {
			t.Fatalf("%v: %v", terms, err)
		}
		requireSameTopK(t, fmt.Sprintf("%v k=%d %+v vs brute force", terms, k, acc.opts), res.TopK, oracle.Eval(nil, idx, query.Plan{Terms: terms}, k, false))
		return res
	}
	build := func(spec corpus.Spec, blockSize int) *index.Index {
		return index.Build(corpus.Generate(spec), index.BuildOptions{Scheme: compress.SchemeHybrid, BlockSize: blockSize, Impacts: true})
	}
	queries := [][]string{
		sparseTerms([]int{0, 1, 2, 3, 4, 5}),
		sparseTerms([]int{5, 3, 1}),
		sparseTerms([]int{2, 0}),
		sparseTerms([]int{4, 0, 5, 2}),
	}

	t.Run("span", func(t *testing.T) {
		idx := build(sparseWindowSpec(40_000, 6, 0.004, 0x5A), index.DefaultBlockSize)
		for _, pl := range idx.Lists {
			if blk := pl.Blocks[0]; blk.LastDoc-blk.FirstDoc < sparseSpan {
				t.Fatalf("%s: first block spans docIDs %d–%d, inside one window; the span would not cut it", pl.Term, blk.FirstDoc, blk.LastDoc)
			}
		}
		for _, opts := range []Options{DefaultOptions(), ExhaustiveOptions()} {
			acc := New(idx, opts)
			for _, k := range []int{1, 10, 1000} {
				for _, terms := range queries {
					check(t, acc, idx, terms, k)
				}
			}
		}
	})

	t.Run("take-back", func(t *testing.T) {
		idx := build(sparseWindowSpec(3000, 6, 0.85, 0x7B), sparseSpan)
		var demoted int
		for _, opts := range []Options{DefaultOptions(), {DocET: true}} {
			acc := New(idx, opts)
			for _, k := range []int{1, 3, 10} {
				for _, terms := range queries {
					res := check(t, acc, idx, terms, k)
					plan, err := acc.PlanSparse(terms, res.TopK[len(res.TopK)-1].Score)
					if err != nil {
						t.Fatal(err)
					}
					demoted += plan.Essential
				}
			}
		}
		if demoted == 0 {
			t.Fatal("no run demoted a list: the take-back path was not exercised")
		}
	})

	t.Run("stop", func(t *testing.T) {
		idx := build(sparseWindowSpec(3000, 6, 0.85, 0x5709), sparseSpan)
		first, second := sparseTerms([]int{0, 2, 4}), sparseTerms([]int{1, 3, 5})
		for _, term := range first {
			idx.MustList(term).MaxImpact = 0 // understated: every prefix bound is 0
		}
		acc := New(idx, DefaultOptions())
		r := acc.newRun(1)
		stopped, err := sparseOn(r, first, 1)
		if err != nil {
			t.Fatal(err)
		}
		if all := len(oracle.Eval(nil, idx, query.Plan{Terms: first}, idx.NumDocs, false)); stopped.M.DocsEvaluated >= int64(all) {
			t.Fatalf("the understated run scored %d of %d documents: it did not stop mid-window", stopped.M.DocsEvaluated, all)
		}
		if !windowClean(r) {
			t.Fatal("the run that stopped on ess == n left its window scratch dirty")
		}
		got, err := sparseOn(r, second, idx.NumDocs)
		if err != nil {
			t.Fatal(err)
		}
		requireSameTopK(t, fmt.Sprintf("%v on the stopped run's record vs brute force", second), got.TopK, oracle.Eval(nil, idx, query.Plan{Terms: second}, idx.NumDocs, false))
	})

	t.Run("fault", func(t *testing.T) {
		const k = 10
		idx := build(sparseWindowSpec(20_000, 4, 0.5, 0xFA), 32)
		terms := sparseTerms([]int{2, 0, 3, 1})
		acc := New(idx, DefaultOptions())
		plan, err := acc.PlanSparse(terms, 0)
		if err != nil {
			t.Fatal(err)
		}
		weakest := plan.Terms[0]
		// From the candidate that demotes the weakest list on, only probes
		// load its blocks.
		demoteAt, ok := thresholdPasses(idx, terms, k, weakest.Prefix)
		if !ok {
			t.Fatalf("the threshold never passes %s's bound: it is never demoted", weakest.Term)
		}
		r := acc.newRun(k)
		for seed := int64(1); seed <= 2000; seed++ {
			fp := mem.FaultPlan{Seed: seed, UncorrectableRate: 0.002}
			inj := fp.InjectorFor(0)
			faults, onlyProbed := 0, true
			for _, term := range terms {
				pl := idx.MustList(term)
				for b := range pl.Blocks {
					if inj.BlockFault(mem.StableKey(term), uint32(b), 0) == mem.FaultUncorrectable {
						faults++
						onlyProbed = onlyProbed && term == weakest.Term && pl.Blocks[b].FirstDoc > demoteAt
					}
				}
			}
			if faults == 0 || !onlyProbed {
				continue
			}
			acc.SetFault(inj)
			if _, err := sparseOn(r, terms, k); err == nil {
				continue // no probe reached a bad block
			} else if !errors.Is(err, mem.ErrMediaUncorrectable) {
				t.Fatalf("fault plan seed %d: %v, want ErrMediaUncorrectable", seed, err)
			}
			if !windowClean(r) {
				t.Fatalf("fault plan seed %d: the run failed mid-window and left its window scratch dirty", seed)
			}
			acc.SetFault(nil)
			got, err := sparseOn(r, terms, idx.NumDocs)
			if err != nil {
				t.Fatal(err)
			}
			requireSameTopK(t, fmt.Sprintf("%v on the failed run's record vs brute force", terms), got.TopK, oracle.Eval(nil, idx, query.Plan{Terms: terms}, idx.NumDocs, false))
			check(t, acc, idx, terms, k)
			return
		}
		t.Fatal("no fault plan failed a probe: the mid-window failure was not exercised")
	})
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

// TestSparseListLimit: the driver's window counts a document's essential
// postings in a byte, so a sparse plan over more lists than that fails
// instead of miscounting; one at the limit runs. (query.Prepare holds a
// query to query.MaxTerms; this is a plan built by hand.)
func TestSparseListLimit(t *testing.T) {
	_, idx := sparseFixture(t, 0.004)
	terms := sparseTerms(rand.New(rand.NewSource(1)).Perm(maxSparseLists + 1))
	acc := New(idx, DefaultOptions())
	if _, err := acc.Exec(nil, query.Plan{Terms: terms}, 10); err == nil {
		t.Fatalf("a sparse plan over %d lists ran", len(terms))
	}
	res, err := acc.Exec(nil, query.Plan{Terms: terms[:maxSparseLists]}, 10)
	if err != nil {
		t.Fatal(err)
	}
	requireSameTopK(t, "a plan at the list limit vs brute force", res.TopK, oracle.Eval(nil, idx, query.Plan{Terms: terms[:maxSparseLists]}, 10, false))
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
