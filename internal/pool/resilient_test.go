package pool

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"boss/internal/clock"
	"boss/internal/corpus"
	"boss/internal/mem"
)

func TestNewClusterRejectsInvalidConfig(t *testing.T) {
	c := corpus.Generate(corpus.CCNewsLike(0.003))
	cases := []struct {
		name   string
		corpus *corpus.Corpus
		shards int
	}{
		{"zero shards", c, 0},
		{"negative shards", c, -3},
		{"nil corpus", nil, 2},
		{"empty corpus", &corpus.Corpus{}, 2},
		{"more shards than documents", c, c.Spec.NumDocs + 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := NewCluster(DefaultConfig(), tc.corpus, tc.shards)
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("error %v does not wrap ErrBadConfig", err)
			}
			if cl != nil {
				t.Fatal("non-nil cluster alongside error")
			}
		})
	}
}

// chaosExprs builds a mixed workload that revisits hot terms.
func chaosExprs(c *corpus.Corpus, n int) []string {
	var exprs []string
	for _, qt := range corpus.AllQueryTypes() {
		for _, q := range corpus.SampleZipfQueries(c, qt, 8, 0, 11) {
			exprs = append(exprs, q.Expr)
		}
	}
	for len(exprs) < n {
		exprs = append(exprs, exprs[len(exprs)%len(exprs)])
	}
	return exprs[:n]
}

// The chaos acceptance test: a 1000-query batch over 4 shards at a 1%
// transient fault rate. Every query must either succeed fully with
// results identical to a pristine twin cluster, or return partial
// results with an accurate Degraded mask — no panics, no goroutine
// leaks, no silently corrupt scores.
func TestChaosBatchTransient(t *testing.T) {
	c := corpus.Generate(corpus.CCNewsLike(0.004))
	cfg := DefaultConfig()
	cfg.CacheBytes = 0 // decode every block so every fetch draws a fault
	clean := mustCluster(t, cfg, c, 4)
	chaos := mustCluster(t, cfg, c, 4)
	chaos.SetFaultPlan(&mem.FaultPlan{Seed: 2026, TransientRate: 0.01})

	exprs := chaosExprs(c, 1000)
	parkHelpers(runtime.GOMAXPROCS(0))
	before := runtime.NumGoroutine()
	br := runBatch(context.Background(), chaos, Queries(exprs, 10))
	if br.Err != nil {
		t.Fatalf("batch error: %v", br.Err)
	}
	for qi, expr := range exprs {
		res, err := slot(br, qi)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		want, err := clean.Search(expr, 10)
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded == 0 {
			if !reflect.DeepEqual(res.TopK, want.TopK) {
				t.Fatalf("query %d (%s): full result differs from pristine cluster", qi, expr)
			}
			if res.ShardErrs != nil {
				t.Fatalf("query %d: ShardErrs set without Degraded bits", qi)
			}
			continue
		}
		// Degraded: the mask must exactly match the recorded shard errors.
		for si := 0; si < chaos.Shards(); si++ {
			bit := res.Degraded&(1<<uint(si)) != 0
			hasErr := res.ShardErrs != nil && res.ShardErrs[si] != nil
			if bit != hasErr {
				t.Fatalf("query %d shard %d: mask bit %v but error %v", qi, si, bit, res.ShardErrs[si])
			}
		}
	}
	// Goroutine hygiene: allow the runtime a moment to retire workers.
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, after)
	}
}

// Under permanent faults, degraded results must equal the pristine
// merge over the surviving shards only.
func TestChaosDegradedResultsAreAccurate(t *testing.T) {
	c := corpus.Generate(corpus.CCNewsLike(0.004))
	cfg := DefaultConfig()
	cfg.CacheBytes = 0
	clean := mustCluster(t, cfg, c, 4)
	chaos := mustCluster(t, cfg, c, 4)
	chaos.SetFaultPlan(&mem.FaultPlan{Seed: 9, DeadDevices: []int{2}})

	sawDegraded := false
	for _, expr := range chaosExprs(c, 40) {
		res, err := chaos.SearchCtx(context.Background(), expr, 10)
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		if res.Degraded == 0 {
			continue // shard 2 had nothing to contribute for this query
		}
		sawDegraded = true
		if res.Degraded != 1<<2 {
			t.Fatalf("%s: degraded mask %b, want shard 2 only", expr, res.Degraded)
		}
		// Early queries see the device error; once the breaker opens,
		// later ones are rejected without reaching the shard.
		if !errors.Is(res.ShardErrs[2], mem.ErrDeviceDown) && !errors.Is(res.ShardErrs[2], ErrShardUnavailable) {
			t.Fatalf("%s: shard 2 error %v is neither ErrDeviceDown nor ErrShardUnavailable", expr, res.ShardErrs[2])
		}
		// The expected partial merge is the pristine cluster's answer with
		// shard 2 masked out.
		br := runBatch(context.Background(), clean, []BatchQuery{{Expr: expr, K: 10, ShardMask: 0b1011}})
		if br.Err != nil {
			t.Fatal(br.Err)
		}
		want := &br.Results[0]
		if !reflect.DeepEqual(res.TopK, want.TopK) {
			t.Fatalf("%s: degraded merge differs from pristine partial merge", expr)
		}
	}
	if !sawDegraded {
		t.Fatal("dead shard never degraded a query")
	}
}

// When every shard is dead the query itself errors.
func TestSearchCtxAllShardsFailed(t *testing.T) {
	c := corpus.Generate(corpus.CCNewsLike(0.003))
	cl := mustCluster(t, DefaultConfig(), c, 2)
	cl.SetFaultPlan(&mem.FaultPlan{Seed: 1, DeadDevices: []int{0, 1}})
	_, err := cl.SearchCtx(context.Background(), `"t0"`, 5)
	if !errors.Is(err, mem.ErrDeviceDown) {
		t.Fatalf("all-dead cluster: got %v, want wrap of ErrDeviceDown", err)
	}
}

// A pre-cancelled context returns promptly with every query failed and
// leaks no goroutines, race-clean.
func TestSearchBatchCtxPreCancelled(t *testing.T) {
	c := corpus.Generate(corpus.CCNewsLike(0.003))
	cl := mustCluster(t, DefaultConfig(), c, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	exprs := chaosExprs(c, 64)
	parkHelpers(runtime.GOMAXPROCS(0))
	before := runtime.NumGoroutine()
	start := time.Now()
	br := runBatch(ctx, cl, Queries(exprs, 10))
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("cancelled batch took %v", took)
	}
	if br.Err == nil {
		t.Fatal("cancelled batch reported success")
	}
	for qi := range exprs {
		if !errors.Is(br.Errs[qi], context.Canceled) {
			t.Fatalf("query %d: %v does not wrap context.Canceled", qi, br.Errs[qi])
		}
		if !reflect.DeepEqual(br.Results[qi], ClusterResult{}) {
			t.Fatalf("query %d: result alongside cancellation", qi)
		}
	}
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, after)
	}
}

// Cancelling mid-batch stops promptly without losing accounting: every
// query either completed or carries a cancellation error.
func TestSearchBatchCtxCancelMidFlight(t *testing.T) {
	c := corpus.Generate(corpus.CCNewsLike(0.004))
	cl := mustCluster(t, DefaultConfig(), c, 3)
	ctx, cancel := context.WithCancel(context.Background())
	exprs := chaosExprs(c, 400)
	parkHelpers(runtime.GOMAXPROCS(0))
	before := runtime.NumGoroutine()
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	br := runBatch(ctx, cl, Queries(exprs, 10))
	for qi := range exprs {
		ok := br.Errs[qi] == nil && br.Results[qi].PerShard != nil
		cancelled := br.Errs[qi] != nil && errors.Is(br.Errs[qi], context.Canceled)
		if !ok && !cancelled {
			t.Fatalf("query %d: neither completed nor cancelled: res=%+v err=%v",
				qi, br.Results[qi], br.Errs[qi])
		}
	}
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, after)
	}
}

// Replay determinism: the same fault plan over the same workload on two
// independently built clusters produces identical outcomes — each query's
// Degraded mask and per-shard errors —, identical per-replica counters and
// the same final clock reading.
func TestClusterReplayDeterministic(t *testing.T) {
	c := corpus.Generate(corpus.CCNewsLike(0.004))
	plan := &mem.FaultPlan{Seed: 77, TransientRate: 0.05, UncorrectableRate: 0.01}
	exprs := chaosExprs(c, 60)
	epoch := time.Unix(0, 0)

	type replay struct {
		outcomes []string
		stats    []ReplicaStats
		elapsed  time.Duration
	}
	runOnce := func() replay {
		cfg := DefaultConfig()
		cfg.Workers = 1    // serial sweep: the counters follow the query order
		cfg.CacheBytes = 0 // identical fetch sequences on both runs
		fake := clock.NewFakeClock(epoch)
		cfg.Clock = fake
		cl := mustCluster(t, cfg, c, 4)
		cl.SetFaultPlan(plan)
		var r replay
		for _, expr := range exprs {
			res, err := cl.SearchCtx(context.Background(), expr, 10)
			if err != nil {
				r.outcomes = append(r.outcomes, err.Error())
			} else {
				r.outcomes = append(r.outcomes, fmt.Sprintf("%b %v", res.Degraded, res.ShardErrs))
			}
		}
		for si := 0; si < cl.Shards(); si++ {
			r.stats = append(r.stats, cl.ReplicaStats(si, 0))
		}
		r.elapsed = fake.Now().Sub(epoch)
		return r
	}

	a, b := runOnce(), runOnce()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical replays diverged:\n%+v\n%+v", a, b)
	}
	failures := 0
	for _, st := range a.stats {
		failures += st.Failures
	}
	if failures == 0 {
		t.Fatal("the plan failed no attempt: the replay checks nothing")
	}
}

// TestSingleCopyAttemptsOnce: a single copy never retries, so under a
// seeded fault plan every failed shard was attempted once — or refused by
// its open breaker without an attempt — and no backoff was served. The
// cache is on, so later queries read blocks earlier ones published. The
// plans: core's replay plan, whose failures are almost all uncorrectable
// blocks, and one whose transient reads often exhaust the device's
// re-reads, the failure a retry on the same copy would repeat.
func TestSingleCopyAttemptsOnce(t *testing.T) {
	c := corpus.Generate(corpus.ClueWebLike(0.02))
	var exprs []string
	for _, qt := range corpus.AllQueryTypes() {
		for _, q := range corpus.SampleQueries(c, qt, 40, 99) {
			exprs = append(exprs, q.Expr)
		}
	}
	for _, plan := range []*mem.FaultPlan{
		{Seed: 42, TransientRate: 0.05, UncorrectableRate: 0.002},
		{Seed: 42, TransientRate: 0.4},
	} {
		cl := mustCluster(t, DefaultConfig(), c, 4)
		cl.SetFaultPlan(plan)
		failed := 0
		for _, expr := range exprs {
			res, err := cl.SearchCtx(context.Background(), expr, 10)
			switch {
			case err != nil:
				failed += cl.Shards() // only an all-shards failure fails the query
			default:
				failed += bits.OnesCount64(res.Degraded)
			}
		}
		var sum ReplicaStats
		for si := 0; si < cl.Shards(); si++ {
			st := cl.ReplicaStats(si, 0)
			sum.Failures += st.Failures
			sum.BreakerRejects += st.BreakerRejects
			sum.Backoffs += st.Backoffs
		}
		if failed == 0 {
			t.Fatalf("%+v failed no shard: the check checks nothing", *plan)
		}
		if sum.Failures+sum.BreakerRejects != failed || sum.Backoffs != 0 {
			t.Fatalf("%+v: %d failed attempts, %d breaker refusals and %d backoffs for %d failed shards; want one of the first two per failed shard and no backoff",
				*plan, sum.Failures, sum.BreakerRejects, sum.Backoffs, failed)
		}
	}
}

// TestReplicaStatsConcurrent: every copy's counters are kept under its
// breaker's mutex, so concurrent requests lose no count. On a clean
// 4-shard, 2-copy cluster, one 256-query batch at GOMAXPROCS workers runs
// beside concurrent SearchCtx callers; afterwards each shard's Successes,
// summed over its copies, equal the answers it served, and nothing else
// was counted.
func TestReplicaStatsConcurrent(t *testing.T) {
	c := replicaTestCorpus(t)
	cfg := DefaultConfig()
	cfg.Replicas = 2
	cfg.Workers = runtime.GOMAXPROCS(0)
	cl := mustCluster(t, cfg, c, 4)
	exprs := chaosExprs(c, 256)
	ctx := context.Background()

	const callers = 4
	singles := make([][]*ClusterResult, callers)
	var wg sync.WaitGroup
	for g := range singles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(exprs); i += callers {
				res, err := cl.SearchCtx(ctx, exprs[i], 10)
				if err != nil {
					t.Errorf("SearchCtx(%q): %v", exprs[i], err)
					return
				}
				singles[g] = append(singles[g], res)
			}
		}()
	}
	br := runBatch(ctx, cl, Queries(exprs, 10))
	wg.Wait()
	if br.Err != nil {
		t.Fatalf("batch: %v", br.Err)
	}

	served := make([]int, cl.Shards())
	tally := func(res *ClusterResult) {
		for si, ri := range res.ServedBy {
			if ri >= 0 {
				served[si]++
			}
		}
	}
	for i := range br.Results {
		tally(&br.Results[i])
	}
	for _, results := range singles {
		for _, res := range results {
			tally(res)
		}
	}
	for si := range served {
		var sum ReplicaStats
		for ri := 0; ri < cl.Replicas(); ri++ {
			st := cl.ReplicaStats(si, ri)
			sum.Successes += st.Successes
			st.Successes = 0
			if st != (ReplicaStats{}) {
				t.Errorf("shard %d copy %d counted more than successes on a clean cluster: %+v", si, ri, st)
			}
		}
		if sum.Successes != served[si] || served[si] == 0 {
			t.Errorf("shard %d: %d successes counted, %d answers served", si, sum.Successes, served[si])
		}
	}
}

// Breaker lifecycle on a fake clock, read off the counters after every
// request: consecutive failures open it, rejections flow while open, the
// cooldown admits a half-open probe, a failed probe re-opens, and a
// successful probe closes it.
func TestBreakerTransitions(t *testing.T) {
	c := corpus.Generate(corpus.CCNewsLike(0.003))
	cfg := DefaultConfig()
	cfg.Workers = 1
	fake := clock.NewFakeClock(time.Unix(1000, 0))
	cfg.Clock = fake
	cl := mustCluster(t, cfg, c, 1)
	cl.SetFaultPlan(&mem.FaultPlan{Seed: 1, DeadDevices: []int{0}})

	ctx := context.Background()
	search := func(step string, want error, stats ReplicaStats) {
		t.Helper()
		_, err := cl.SearchCtx(ctx, `"t0"`, 5)
		if want == nil && err != nil || want != nil && !errors.Is(err, want) {
			t.Fatalf("%s: err = %v, want %v", step, err, want)
		}
		if got := cl.ReplicaStats(0, 0); got != stats {
			t.Fatalf("%s: counters\n got %+v\nwant %+v", step, got, stats)
		}
	}
	// breakerThreshold failures open the breaker; a single copy never retries.
	for i := 1; i < breakerThreshold; i++ {
		search(fmt.Sprintf("failure %d", i), mem.ErrDeviceDown, ReplicaStats{Failures: i})
	}
	search("opening failure", mem.ErrDeviceDown, ReplicaStats{Failures: 5, BreakerOpens: 1})
	// Open: attempts are rejected without reaching the shard.
	search("open breaker", ErrShardUnavailable, ReplicaStats{Failures: 5, BreakerOpens: 1, BreakerRejects: 1})
	// After the cooldown a probe goes through; the shard is still dead,
	// so the breaker re-opens.
	fake.Advance(2 * breakerCooldown)
	search("half-open probe", mem.ErrDeviceDown,
		ReplicaStats{Failures: 6, BreakerOpens: 2, BreakerHalfOpens: 1, BreakerRejects: 1})
	search("re-opened breaker", ErrShardUnavailable,
		ReplicaStats{Failures: 6, BreakerOpens: 2, BreakerHalfOpens: 1, BreakerRejects: 2})
	// Heal the device; the next cooldown probe succeeds and closes it.
	cl.SetFaultPlan(nil)
	fake.Advance(2 * breakerCooldown)
	search("healing probe", nil,
		ReplicaStats{Successes: 1, Failures: 6, BreakerOpens: 2, BreakerHalfOpens: 2, BreakerCloses: 1, BreakerRejects: 2})
	search("closed breaker", nil,
		ReplicaStats{Successes: 2, Failures: 6, BreakerOpens: 2, BreakerHalfOpens: 2, BreakerCloses: 1, BreakerRejects: 2})
}

// Backoff delays are pure in (shard, attempt), bounded by the cap, at
// least half the exponential step, and no two shards share a jitter stream.
func TestBackoffDeterministicAndBounded(t *testing.T) {
	for shard := 0; shard < 4; shard++ {
		for attempt := 0; attempt < 8; attempt++ {
			a := backoffDelay(shard, attempt)
			b := backoffDelay(shard, attempt)
			if a != b {
				t.Fatalf("shard %d attempt %d: %v != %v", shard, attempt, a, b)
			}
			if a > backoffMax {
				t.Fatalf("shard %d attempt %d: %v exceeds cap", shard, attempt, a)
			}
			if a < backoffBase/2 {
				t.Fatalf("shard %d attempt %d: %v below half the base", shard, attempt, a)
			}
		}
	}
	same := 0
	for attempt := 0; attempt < 8; attempt++ {
		if backoffDelay(0, attempt) == backoffDelay(1, attempt) {
			same++
		}
	}
	if same == 8 {
		t.Fatal("two shards produced identical jitter streams")
	}
}

// Search and SearchSerial keep their pre-degradation contract on the one
// request path: where SearchCtx degrades around a dead shard, they fail
// the query with that shard's error.
func TestSearchStrictFailsOnShardError(t *testing.T) {
	c := corpus.Generate(corpus.CCNewsLike(0.004))
	cfg := DefaultConfig()
	cfg.CacheBytes = 0
	cl := mustCluster(t, cfg, c, 4)
	cl.SetFaultPlan(&mem.FaultPlan{Seed: 9, DeadDevices: []int{2}})
	const expr = `"t0"` // the most common term: every shard holds it
	res, err := cl.SearchCtx(context.Background(), expr, 10)
	if err != nil || res.Degraded != 1<<2 {
		t.Fatalf("SearchCtx: err=%v degraded=%b, want a result missing shard 2 only", err, res.Degraded)
	}
	for name, search := range map[string]func(string, int) (*ClusterResult, error){
		"Search": cl.Search, "SearchSerial": cl.SearchSerial,
	} {
		if res, err := search(expr, 10); !errors.Is(err, mem.ErrDeviceDown) || res != nil {
			t.Fatalf("%s: res=%v err=%v, want the dead shard's ErrDeviceDown and no result", name, res, err)
		}
	}
}
