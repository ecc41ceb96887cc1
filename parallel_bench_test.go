package boss

// Wall-clock benchmarks for the parallel execution layer. Unlike the
// experiment benchmarks (which report simulated device quantities), these
// time real host execution: serial baselines next to their batch/parallel
// counterparts so `go test -bench=Parallel -benchmem` shows the actual
// speedup and per-query allocations.

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"boss/internal/core"
	"boss/internal/corpus"
	"boss/internal/engine"
	"boss/internal/perf"
	"boss/internal/pool"
	"boss/internal/query"
	"boss/internal/topk"
)

const benchShards = 4

var (
	benchClusterOnce sync.Once
	benchCluster     *pool.Cluster
)

// sharedCluster shards the ClueWeb-like corpus once across benchmarks.
func sharedCluster() *pool.Cluster {
	benchClusterOnce.Do(func() {
		s := sharedCtx().ClueWeb()
		var err error
		benchCluster, err = pool.NewCluster(pool.DefaultConfig(), s.Corpus, benchShards)
		if err != nil {
			panic(err)
		}
	})
	return benchCluster
}

// benchWorkload flattens the full sampled workload into parallel expr/node
// slices.
func benchWorkload() ([]string, []*query.Node) {
	s := sharedCtx().ClueWeb()
	var exprs []string
	var nodes []*query.Node
	for _, qt := range corpus.AllQueryTypes() {
		for _, q := range s.Workload[qt] {
			exprs = append(exprs, q.Expr)
			nodes = append(nodes, query.MustParse(q.Expr))
		}
	}
	return exprs, nodes
}

// benchPlans is benchWorkload's queries as the plans the accelerator runs.
func benchPlans() []query.Plan {
	_, nodes := benchWorkload()
	plans := make([]query.Plan, len(nodes))
	for i, n := range nodes {
		plans[i] = n.Plan()
	}
	return plans
}

// heavyExpr returns a Q5-style union, the workload's most expensive shape —
// every shard participates, so shard fan-out has real work to parallelize.
func heavyExpr() string {
	s := sharedCtx().ClueWeb()
	return s.Workload[corpus.Q5][0].Expr
}

func BenchmarkClusterSearchSerial(b *testing.B) {
	cl := sharedCluster()
	expr := heavyExpr()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.SearchSerial(expr, benchCfg.K); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterSearchParallel is the headline wall-clock number: speedup
// over BenchmarkClusterSearchSerial tracks GOMAXPROCS up to the shard count
// (the reported gomaxprocs metric says how many cores the run actually had —
// on a single-core machine the two benchmarks coincide by construction).
func BenchmarkClusterSearchParallel(b *testing.B) {
	cl := sharedCluster()
	expr := heavyExpr()
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Search(expr, benchCfg.K); err != nil {
			b.Fatal(err)
		}
	}
}

// zipfExprs samples a Zipf-skewed query workload over the ClueWeb-like
// corpus: term popularity in the queries follows the corpus's own skew, so
// hot posting blocks recur across queries the way they do in real traffic.
// The shapes are the conjunctive ones of Table II (Q2: A AND B, Q4: A AND B
// AND C AND D) — AND is the default semantics of production web search, and
// conjunctions are where decode dominates evaluation, i.e. the serving mix
// the decoded-block cache targets.
func zipfExprs(n int) []string {
	s := sharedCtx().ClueWeb()
	types := []corpus.QueryType{corpus.Q2, corpus.Q4}
	per := (n + len(types) - 1) / len(types)
	exprs := make([]string, 0, n)
	for _, qt := range types {
		for _, q := range corpus.SampleZipfQueries(s.Corpus, qt, per, 0, int64(benchCfg.Seed)) {
			if len(exprs) == n {
				break
			}
			exprs = append(exprs, q.Expr)
		}
	}
	return exprs
}

// batchK is the serving depth for the batch benchmark: first-stage retrieval
// at a typical page depth, where block skipping and the cache interact the
// way a serving tier sees them. The harness figures keep the paper's
// K=1000 default; this constant only shapes the throughput benchmark.
const batchK = 10

// BenchmarkClusterSearchBatch is the PR 4 headline: a 1000-query Zipfian
// conjunctive batch through the sharded cluster with the decoded-block cache
// off vs on. The cache=on sub-benchmark's speedup is cross-query block reuse
// only — results and simulated metrics are bit-identical either way
// (TestClusterCacheDeterminism).
func BenchmarkClusterSearchBatch(b *testing.B) {
	shared := sharedCluster()
	batch := pool.Queries(zipfExprs(1000), batchK)
	for _, bc := range []struct {
		name  string
		bytes int64
	}{
		{"cache=off", 0},
		{"cache=on", pool.DefaultCacheBytes},
	} {
		b.Run(bc.name, func(b *testing.B) {
			// The shared shards behind this arm's cache: every run starts
			// cold, and the shared cluster's cache is left as it was.
			cfg := pool.DefaultConfig()
			cfg.CacheBytes = bc.bytes
			cl, err := shared.Fresh(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var br pool.BatchResult
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cl.SearchBatchQueries(context.Background(), batch, &br); br.Err != nil {
					b.Fatal(br.Err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(batch)), "queries/op")
			if st := cl.CacheStats(); st.Hits+st.Misses > 0 {
				b.ReportMetric(st.HitRate(), "hit-rate")
			}
		})
	}
}

func BenchmarkEngineRun(b *testing.B) {
	eng := engine.New(sharedCtx().ClueWeb().Hybrid)
	_, nodes := benchWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range nodes {
			if _, err := eng.Run(n, benchCfg.K); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(nodes)), "queries/op")
}

// BenchmarkIndexSearchBatch is BenchmarkEngineRun's workload through the
// facade's batch, which fans the queries over pool.ForEach.
func BenchmarkIndexSearchBatch(b *testing.B) {
	ix := &Index{idx: sharedCtx().ClueWeb().Hybrid}
	exprs, _ := benchWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, it := range ix.SearchBatch(exprs, benchCfg.K) {
			if it.Err != nil {
				b.Fatal(it.Err)
			}
		}
	}
	b.ReportMetric(float64(len(exprs)), "queries/op")
}

func BenchmarkAcceleratorRun(b *testing.B) {
	acc := core.New(sharedCtx().ClueWeb().Hybrid, core.DefaultOptions())
	plans := benchPlans()
	var m perf.Metrics
	var top []topk.Entry
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pl := range plans {
			if top, err = acc.Exec(nil, pl, benchCfg.K, &m, top[:0]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(plans)), "queries/op")
}

// BenchmarkBOSSQuery is the single-query allocation benchmark for the BOSS
// model path: one heavy union through one accelerator. Run with -benchmem;
// allocs/op here is the number the compiled-decompressor work is measured
// against (CHANGES.md records before/after).
func BenchmarkBOSSQuery(b *testing.B) {
	acc := core.New(sharedCtx().ClueWeb().Hybrid, core.DefaultOptions())
	pl := query.MustParse(heavyExpr()).Plan()
	var m perf.Metrics
	var top []topk.Entry
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if top, err = acc.Exec(nil, pl, benchCfg.K, &m, top[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAcceleratorSearchBatch is BenchmarkAcceleratorRun's workload
// through the facade's batch, cache off like the core.New it is compared with.
func BenchmarkAcceleratorSearchBatch(b *testing.B) {
	acc := (&Index{idx: sharedCtx().ClueWeb().Hybrid}).Accelerator(AccelOptions{CacheBytes: -1})
	exprs, _ := benchWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, it := range acc.SearchBatch(exprs, benchCfg.K) {
			if it.Err != nil {
				b.Fatal(it.Err)
			}
		}
	}
	b.ReportMetric(float64(len(exprs)), "queries/op")
}
