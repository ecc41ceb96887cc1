package harness

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"boss/internal/cache"
	"boss/internal/core"
	"boss/internal/engine"
	"boss/internal/pool"
	"boss/internal/query"
)

// WallclockReport captures real host-side execution throughput, as opposed
// to the simulated-latency numbers every other experiment reports. The
// simulated figures tell us what the modeled hardware would do; these tell
// us how fast this repository actually evaluates queries on the machine it
// runs on, which is what the parallel execution layer optimizes. Future PRs
// compare -wallclock -json outputs to track the trajectory.
type WallclockReport struct {
	Schema     string `json:"schema"`
	PR         int    `json:"pr"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Corpus     string `json:"corpus"`
	Queries    int    `json:"queries"`
	K          int    `json:"k"`
	Shards     int    `json:"shards"`

	// Software engine (Lucene stand-in) over the monolithic index.
	EngineSerialQPS float64 `json:"engine_serial_qps"`
	EngineBatchQPS  float64 `json:"engine_batch_qps"`

	// Accelerator model over the monolithic index.
	AccelSerialQPS float64 `json:"accel_serial_qps"`
	AccelBatchQPS  float64 `json:"accel_batch_qps"`

	// Pooled-memory cluster: per-query shard fan-out (serial vs parallel)
	// and the pipelined query batch. The batch runs twice — once with the
	// cross-query decoded-block cache disabled and once with the default
	// budget — so the report tracks what cross-query block reuse buys.
	ClusterSerialQPS       float64 `json:"cluster_serial_qps"`
	ClusterParallelQPS     float64 `json:"cluster_parallel_qps"`
	ClusterBatchQPS        float64 `json:"cluster_batch_qps"`
	ClusterBatchNoCacheQPS float64 `json:"cluster_batch_nocache_qps"`

	// Cache snapshots the decoded-block cache counters after the cache-on
	// batch run: hit rate, bytes served from DRAM, decodes avoided.
	Cache cache.Stats `json:"cache"`
}

// wallclockMinDuration is how long each measured loop repeats; long enough
// to defeat timer noise, short enough for a CI smoke run.
const wallclockMinDuration = 200 * time.Millisecond

// measureQPS repeats f (which evaluates n queries) until the minimum
// duration elapses and reports queries per wall-clock second.
//
//boss:wallclock this report intentionally measures real host-side throughput.
func measureQPS(n int, f func()) float64 {
	start := time.Now()
	iters := 0
	for {
		f()
		iters++
		if time.Since(start) >= wallclockMinDuration {
			break
		}
	}
	return float64(n*iters) / time.Since(start).Seconds()
}

// Wallclock measures real query throughput of the software engine, the
// accelerator model, and the sharded cluster on the ClueWeb-like setup.
func Wallclock(ctx *Context, shards int) *WallclockReport {
	if shards <= 0 {
		shards = 4
	}
	s := ctx.ClueWeb()
	k := ctx.Cfg.K

	var exprs []string
	var nodes []*query.Node
	for _, qt := range sortedQueryTypes() {
		for _, q := range s.Workload[qt] {
			exprs = append(exprs, q.Expr)
			nodes = append(nodes, query.MustParse(q.Expr))
		}
	}

	rep := &WallclockReport{
		Schema:     BenchSchema,
		PR:         BenchPR,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Corpus:     s.Spec.Name,
		Queries:    len(exprs),
		K:          k,
		Shards:     shards,
	}

	eng := engine.New(s.Hybrid)
	rep.EngineSerialQPS = measureQPS(len(nodes), func() {
		for _, n := range nodes {
			if _, err := eng.Run(n, k); err != nil {
				panic(err)
			}
		}
	})
	rep.EngineBatchQPS = measureQPS(len(nodes), func() {
		if br := eng.RunBatch(nodes, k, 0); br.Err != nil {
			panic(br.Err)
		}
	})

	acc := core.New(s.Hybrid, core.DefaultOptions())
	rep.AccelSerialQPS = measureQPS(len(nodes), func() {
		for _, n := range nodes {
			if _, err := acc.Run(n, k); err != nil {
				panic(err)
			}
		}
	})
	rep.AccelBatchQPS = measureQPS(len(nodes), func() {
		if br := acc.RunBatch(nodes, k, 0); br.Err != nil {
			panic(br.Err)
		}
	})

	cl, err := pool.NewCluster(pool.DefaultConfig(), s.Corpus, shards)
	if err != nil {
		panic(err)
	}
	rep.ClusterSerialQPS = measureQPS(len(exprs), func() {
		for _, e := range exprs {
			if _, err := cl.SearchSerial(e, k); err != nil {
				panic(err)
			}
		}
	})
	rep.ClusterParallelQPS = measureQPS(len(exprs), func() {
		for _, e := range exprs {
			if _, err := cl.Search(e, k); err != nil {
				panic(err)
			}
		}
	})
	batch := pool.Queries(exprs, k)
	rep.ClusterBatchQPS = measureQPS(len(exprs), func() {
		if br := cl.SearchBatchQueries(context.Background(), batch); br.Err != nil {
			panic(br.Err)
		}
	})
	rep.Cache = cl.CacheStats()

	// Same batch with cross-query block reuse off: every query decodes its
	// own blocks, like the pre-cache serving path.
	cl.SetCacheBytes(0)
	rep.ClusterBatchNoCacheQPS = measureQPS(len(exprs), func() {
		if br := cl.SearchBatchQueries(context.Background(), batch); br.Err != nil {
			panic(br.Err)
		}
	})
	cl.SetCacheBytes(pool.DefaultCacheBytes)
	return rep
}

// Table renders the report in the harness's table format so -wallclock
// composes with the text output path too.
func (r *WallclockReport) Table() *Table {
	f0 := func(v float64) string { return fmt.Sprintf("%.0f", v) }
	return &Table{
		ID:    "wallclock",
		Title: fmt.Sprintf("Real QPS on %s (%d queries, k=%d, GOMAXPROCS=%d)", r.Corpus, r.Queries, r.K, r.GOMAXPROCS),
		Header: []string{
			"system", "serial-qps", "batch-qps",
		},
		Rows: [][]string{
			{"engine", f0(r.EngineSerialQPS), f0(r.EngineBatchQPS)},
			{"accelerator", f0(r.AccelSerialQPS), f0(r.AccelBatchQPS)},
			{fmt.Sprintf("cluster-%dnode", r.Shards), f0(r.ClusterSerialQPS), f0(r.ClusterBatchQPS)},
			{fmt.Sprintf("cluster-%dnode-fanout", r.Shards), f0(r.ClusterSerialQPS), f0(r.ClusterParallelQPS)},
			{fmt.Sprintf("cluster-%dnode-nocache", r.Shards), f0(r.ClusterSerialQPS), f0(r.ClusterBatchNoCacheQPS)},
		},
		Notes: []string{
			"wall-clock host throughput (not simulated device latency)",
			"cluster-fanout row: batch column is per-query parallel shard fan-out",
			"cluster-nocache row: batch with the decoded-block cache disabled",
			fmt.Sprintf("block cache: %.1f%% hit rate, %.1f MiB decoded bytes served, %d postings' decode avoided",
				100*r.Cache.HitRate(), float64(r.Cache.ServedBytes)/(1<<20), r.Cache.ServedPostings),
		},
	}
}
