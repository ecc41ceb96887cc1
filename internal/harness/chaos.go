package harness

import (
	"context"
	"fmt"
	"sort"
	"time"

	"boss/internal/clock"
	"boss/internal/corpus"
	"boss/internal/mem"
	"boss/internal/pool"
)

// ChaosPoint is one fault-rate operating point of the chaos sweep: the
// cluster serves the same Zipfian batch while the fault plan injects
// transient and uncorrectable media errors at the given per-access rate,
// and the point records how much of the workload survived and at what
// host cost.
type ChaosPoint struct {
	// FaultRate is the per-access probability applied to both transient
	// read errors (retried transparently by the device layer) and
	// uncorrectable media errors (non-retryable; these are what degrade
	// results).
	FaultRate float64 `json:"fault_rate"`
	// Replicas is how many copies of each shard served the point, and
	// DeadReplicas how many whole shard copies the fault plan killed
	// (replica-kill mode takes down copy 0 of every shard).
	Replicas     int `json:"replicas"`
	DeadReplicas int `json:"dead_replicas"`
	// Queries is how many query executions the point measured.
	Queries int `json:"queries"`
	// FullyOK counts executions whose every shard answered.
	FullyOK int `json:"fully_ok"`
	// Degraded counts executions that returned results with at least one
	// shard missing (ClusterResult.Degraded != 0).
	Degraded int `json:"degraded"`
	// Failed counts executions that returned no result at all.
	Failed int `json:"failed"`
	// Availability is the fraction of executions that returned a result,
	// degraded or not: (FullyOK + Degraded) / Queries.
	Availability float64 `json:"availability"`
	// TransientRetries counts device reads the accelerators retried
	// transparently (core-level, from the per-shard metrics).
	TransientRetries int64 `json:"transient_retries"`
	// ShardRetries counts pool-level shard re-attempts (backoffs), and
	// BreakerOpens counts circuit-breaker opens, both summed over shard
	// replicas from pool.Cluster.ReplicaStats.
	ShardRetries int `json:"shard_retries"`
	BreakerOpens int `json:"breaker_opens"`
	// QPS is real host-side throughput and P50LatencyUS / P99LatencyUS
	// per-query host latency percentiles in microseconds — of the work done:
	// backoff waits are virtual. Only these three differ between two runs.
	QPS          float64 `json:"qps"`
	P50LatencyUS float64 `json:"p50_latency_us"`
	P99LatencyUS float64 `json:"p99_latency_us"`
}

// ChaosReport is the -chaos benchmark: availability and throughput of the
// resilient cluster serving path at increasing fault-injection rates. Rate
// zero is the control — it runs with a nil fault plan, i.e. the exact
// fault-free fast path every simulated figure uses. With Replicas > 1 the
// sweep serves from replicated shards, which retry on another copy; with
// ReplicaKill the fault plan additionally takes copy 0 of every shard down,
// so availability measures pure replica failover.
type ChaosReport struct {
	ReportHeader
	Replicas    int          `json:"replicas"`
	ReplicaKill bool         `json:"replica_kill"`
	Batch       int          `json:"batch"`
	Points      []ChaosPoint `json:"points"`
}

// chaosRates are the sweep's operating points: clean, 0.1%, 1%.
var chaosRates = []float64{0, 0.001, 0.01}

// chaosBatch is how many Zipfian queries each operating point serves per
// measurement pass, and chaosPasses how many serial passes it makes: a
// fixed count, so a point's query total does not depend on how fast the
// host is (1,000 per point).
const (
	chaosBatch  = 200
	chaosPasses = 5
)

// chaosInterArrival is the virtual time between two queries (5k QPS
// offered): with backoffs, all that moves the sweep's clock.
const chaosInterArrival = 200 * time.Microsecond

// chaosExprs samples the conjunctive Zipfian serving mix (Q2/Q4, the
// decode-bound shapes) cycled up to n queries.
func chaosExprs(c *corpus.Corpus, seed int64, n int) []string {
	types := []corpus.QueryType{corpus.Q2, corpus.Q4}
	per := (n + len(types) - 1) / len(types)
	exprs := make([]string, 0, n)
	for _, qt := range types {
		for _, q := range corpus.SampleZipfQueries(c, qt, per, 0, seed) {
			if len(exprs) == n {
				break
			}
			exprs = append(exprs, q.Expr)
		}
	}
	return exprs
}

// chaosConfig is the sweep's cluster configuration: cache off (faults are
// drawn on the decode path, so a warm decoded-block cache would absorb
// the fault plan after the first pass and every point would trivially
// report full availability), the requested replica count (a replicated
// sweep retries a failed attempt on another copy; a single copy degrades
// it), and a serial shard sweep on the given clock.
func chaosConfig(replicas int, clk clock.Clock) pool.Config {
	cfg := pool.DefaultConfig()
	cfg.CacheBytes = 0
	cfg.Replicas = replicas
	cfg.Workers = 1
	cfg.Clock = clk
	return cfg
}

// chaosPoint measures one fault rate on a fresh serving state derived
// from the base cluster (so breaker state and the decoded-block cache
// never leak across points, while the expensive shard index builds are
// shared), its own fake clock, the rate's fault plan, and
// chaosPasses serial passes over the batch. The cluster is returned for
// tests that read its replica counters.
//
//boss:wallclock qps and the latency percentiles intentionally measure real host-side work.
func chaosPoint(base *pool.Cluster, seed int64, exprs []string, k int, rate float64, replicaKill bool) (ChaosPoint, *pool.Cluster) {
	fake := clock.NewFakeClock(time.Unix(0, 0))
	cl, err := base.Fresh(chaosConfig(base.Replicas(), fake))
	if err != nil {
		panic(err)
	}
	pt := ChaosPoint{FaultRate: rate, Replicas: cl.Replicas()}
	if rate > 0 || replicaKill {
		plan := &mem.FaultPlan{Seed: seed}
		if rate > 0 {
			plan.TransientRate = rate
			plan.UncorrectableRate = rate
		}
		if replicaKill {
			// Whole-replica kill: copy 0 of every shard never answers, so
			// every query must fail over to a surviving copy.
			for si := 0; si < cl.Shards(); si++ {
				plan.DeadDevices = append(plan.DeadDevices, cl.ReplicaDevice(si, 0))
			}
			pt.DeadReplicas = cl.Shards()
		}
		cl.SetFaultPlan(plan)
	}

	var lat []time.Duration
	start := time.Now()
	for pass := 0; pass < chaosPasses; pass++ {
		for _, expr := range exprs {
			q0 := time.Now()
			res, err := cl.SearchCtx(context.Background(), expr, k)
			lat = append(lat, time.Since(q0))
			fake.Advance(chaosInterArrival)
			pt.Queries++
			switch {
			case err != nil:
				pt.Failed++
			case res.Degraded != 0:
				pt.Degraded++
			default:
				pt.FullyOK++
			}
			if err == nil {
				for _, m := range res.PerShard {
					if m != nil {
						pt.TransientRetries += m.TransientRetries
					}
				}
			}
		}
	}
	elapsed := time.Since(start)

	pt.Availability = float64(pt.FullyOK+pt.Degraded) / float64(pt.Queries)
	pt.QPS = float64(pt.Queries) / elapsed.Seconds()
	for si := 0; si < cl.Shards(); si++ {
		for ri := 0; ri < cl.Replicas(); ri++ {
			st := cl.ReplicaStats(si, ri)
			pt.ShardRetries += st.Backoffs
			pt.BreakerOpens += st.BreakerOpens
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pt.P50LatencyUS = latPercentileUS(lat, 0.50)
	pt.P99LatencyUS = latPercentileUS(lat, 0.99)
	return pt, cl
}

// Chaos sweeps the resilient serving path across fault-injection rates and
// reports availability, retry/breaker activity, and host throughput at
// each point. Every point runs on a fake clock that moves by
// chaosInterArrival per query and by each backoff's length, so breaker
// cooldowns are functions of the query sequence and every outcome column
// is byte-identical across runs. Rate zero is the control: full
// availability, zero retries and breaker opens. replicas > 1 serves every
// point from replicated shards, which retry on another copy;
// replicaKill additionally takes copy 0 of every shard down at every point
// (requires replicas >= 2 — with one copy a whole-replica kill is just an
// outage). The shard index builds are shared across points;
// only serving state (cache, breakers, fault plan, clock) is per point.
func Chaos(ctx *Context, shards, replicas int, replicaKill bool) *ChaosReport {
	if shards <= 0 {
		shards = 4
	}
	if replicas <= 0 {
		replicas = 1
	}
	if replicaKill && replicas < 2 {
		panic("harness: -replicakill requires at least 2 replicas")
	}
	s := ctx.ClueWeb()
	k := ctx.Cfg.K
	seed := ctx.Cfg.Seed
	exprs := chaosExprs(s.Corpus, seed, chaosBatch)

	base, err := pool.NewCluster(chaosConfig(replicas, nil), s.Corpus, shards)
	if err != nil {
		panic(err)
	}

	rep := &ChaosReport{
		ReportHeader: newReportHeader(ctx, shards),
		Replicas:     replicas,
		ReplicaKill:  replicaKill,
		Batch:        len(exprs),
	}
	for _, rate := range chaosRates {
		pt, _ := chaosPoint(base, seed, exprs, k, rate, replicaKill)
		rep.Points = append(rep.Points, pt)
	}
	return rep
}

// Table renders the report in the harness table format so -chaos composes
// with the text output path too.
func (r *ChaosReport) Table() *Table {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f%%", 100*p.FaultRate),
			fmt.Sprintf("%d", p.Replicas),
			fmt.Sprintf("%d", p.DeadReplicas),
			fmt.Sprintf("%d", p.Queries),
			fmt.Sprintf("%d", p.FullyOK),
			fmt.Sprintf("%d", p.Degraded),
			fmt.Sprintf("%d", p.Failed),
			fmt.Sprintf("%.4f", p.Availability),
			fmt.Sprintf("%d", p.TransientRetries),
			fmt.Sprintf("%d", p.ShardRetries),
			fmt.Sprintf("%d", p.BreakerOpens),
			fmt.Sprintf("%.0f", p.QPS),
			fmt.Sprintf("%.0f", p.P99LatencyUS),
		})
	}
	return &Table{
		ID:    "chaos",
		Title: fmt.Sprintf("Availability under fault injection on %s (%d shards x %d replicas, %d-query batch, k=%d)", r.Corpus, r.Shards, r.Replicas, r.Batch, r.K),
		Header: []string{
			"fault-rate", "replicas", "dead", "queries", "ok", "degraded", "failed",
			"availability", "dev-retries", "shard-retries", "breaker-opens",
			"qps", "p99-us",
		},
		Rows: rows,
		Notes: []string{
			"fault-rate is the per-access probability of both transient and uncorrectable errors",
			"availability counts degraded (partial) results as available",
			"dead is whole shard copies killed by the plan (replica-kill mode: copy 0 of every shard)",
			fmt.Sprintf("queries is fixed: %d serial passes over the batch; every column but qps and p99-us is reproducible bit for bit", chaosPasses),
			fmt.Sprintf("breaker cooldowns and backoffs run on a virtual clock: %v per query plus each backoff's length", chaosInterArrival),
			"qps and p99-us are host measurements of the work done (not simulated device latency); backoff waits are virtual and cost no host time",
		},
	}
}
