package pool

import (
	"context"
	"errors"
	"reflect"
	"runtime"
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
// independently built clusters produces identical outcomes and identical
// per-shard resilience event logs, event for event.
func TestResilienceReplayDeterministic(t *testing.T) {
	c := corpus.Generate(corpus.CCNewsLike(0.004))
	plan := &mem.FaultPlan{Seed: 77, TransientRate: 0.05, UncorrectableRate: 0.01}
	exprs := chaosExprs(c, 60)

	type qOutcome struct {
		degraded uint64
		errText  string
	}
	type shardEvent struct {
		kind    EventKind
		attempt int
		backoff time.Duration
		errText string
	}
	runOnce := func() ([]qOutcome, [][]shardEvent) {
		cfg := DefaultConfig()
		cfg.Workers = 1    // serial sweep: event order is the query order
		cfg.CacheBytes = 0 // identical fetch sequences on both runs
		cfg.Clock = clock.NewFakeClock(time.Unix(0, 0))
		cl := mustCluster(t, cfg, c, 4)
		cl.SetFaultPlan(plan)
		outs := make([]qOutcome, 0, len(exprs))
		for _, expr := range exprs {
			res, err := cl.SearchCtx(context.Background(), expr, 10)
			o := qOutcome{}
			if err != nil {
				o.errText = err.Error()
			} else {
				o.degraded = res.Degraded
			}
			outs = append(outs, o)
		}
		logs := make([][]shardEvent, cl.Shards())
		for si := range logs {
			for _, ev := range cl.Events(si) {
				se := shardEvent{kind: ev.Kind, attempt: ev.Attempt, backoff: ev.Backoff}
				if ev.Err != nil {
					se.errText = ev.Err.Error()
				}
				logs[si] = append(logs[si], se)
			}
		}
		return outs, logs
	}

	outA, logA := runOnce()
	outB, logB := runOnce()
	if !reflect.DeepEqual(outA, outB) {
		t.Fatal("query outcomes diverged between identical replays")
	}
	for si := range logA {
		if len(logA[si]) != len(logB[si]) {
			t.Fatalf("shard %d: %d events vs %d", si, len(logA[si]), len(logB[si]))
		}
		for i := range logA[si] {
			if logA[si][i] != logB[si][i] {
				t.Fatalf("shard %d event %d: %+v vs %+v", si, i, logA[si][i], logB[si][i])
			}
		}
	}
}

// Breaker lifecycle on a fake clock: consecutive failures open it,
// rejections flow while open, the cooldown admits a half-open probe, a
// failed probe re-opens, and a successful probe closes it.
func TestBreakerTransitions(t *testing.T) {
	c := corpus.Generate(corpus.CCNewsLike(0.003))
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.Resilience = Resilience{
		MaxRetries:       0, // isolate the breaker from retry
		BreakerThreshold: 3,
		BreakerCooldown:  time.Minute,
	}
	fake := clock.NewFakeClock(time.Unix(1000, 0))
	cfg.Clock = fake
	cl := mustCluster(t, cfg, c, 1)
	cl.SetFaultPlan(&mem.FaultPlan{Seed: 1, DeadDevices: []int{0}})

	ctx := context.Background()
	// Three failures open the breaker.
	for i := 0; i < 3; i++ {
		if _, err := cl.SearchCtx(ctx, `"t0"`, 5); !errors.Is(err, mem.ErrDeviceDown) {
			t.Fatalf("failure %d: %v", i, err)
		}
	}
	// Open: attempts are rejected without reaching the shard.
	if _, err := cl.SearchCtx(ctx, `"t0"`, 5); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("open breaker: got %v, want ErrShardUnavailable", err)
	}
	// After the cooldown a probe goes through; the shard is still dead,
	// so the breaker re-opens.
	fake.Advance(2 * time.Minute)
	if _, err := cl.SearchCtx(ctx, `"t0"`, 5); !errors.Is(err, mem.ErrDeviceDown) {
		t.Fatalf("half-open probe: %v", err)
	}
	if _, err := cl.SearchCtx(ctx, `"t0"`, 5); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("re-opened breaker: got %v, want ErrShardUnavailable", err)
	}
	// Heal the device; the next cooldown probe succeeds and closes it.
	cl.SetFaultPlan(nil)
	fake.Advance(2 * time.Minute)
	if _, err := cl.SearchCtx(ctx, `"t0"`, 5); err != nil {
		t.Fatalf("healing probe: %v", err)
	}
	if _, err := cl.SearchCtx(ctx, `"t0"`, 5); err != nil {
		t.Fatalf("closed breaker: %v", err)
	}
	// The event log shows the full lifecycle in order.
	var kinds []EventKind
	for _, ev := range cl.Events(0) {
		kinds = append(kinds, ev.Kind)
	}
	want := []EventKind{
		EvAttempt, EvFailure, // 1st failure
		EvAttempt, EvFailure, // 2nd
		EvAttempt, EvFailure, EvBreakerOpen, // 3rd opens
		EvBreakerReject,                                        // rejected while open
		EvBreakerHalfOpen, EvAttempt, EvFailure, EvBreakerOpen, // probe fails
		EvBreakerReject,                              // rejected again
		EvBreakerHalfOpen, EvAttempt, EvBreakerClose, // healing probe
		EvAttempt, // closed-state success
	}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("event kinds\n got %v\nwant %v", kinds, want)
	}
}

// Backoff delays are pure in (seed, shard, attempt), bounded by the cap,
// and at least half the exponential step.
func TestBackoffDeterministicAndBounded(t *testing.T) {
	r := Resilience{BackoffBase: time.Millisecond, BackoffMax: 16 * time.Millisecond, Seed: 4}.normalize()
	for shard := 0; shard < 4; shard++ {
		for attempt := 0; attempt < 8; attempt++ {
			a := r.backoffDelay(shard, attempt)
			b := r.backoffDelay(shard, attempt)
			if a != b {
				t.Fatalf("shard %d attempt %d: %v != %v", shard, attempt, a, b)
			}
			if a > r.BackoffMax {
				t.Fatalf("shard %d attempt %d: %v exceeds cap", shard, attempt, a)
			}
			if a < r.BackoffBase/2 {
				t.Fatalf("shard %d attempt %d: %v below half the base", shard, attempt, a)
			}
		}
	}
	other := Resilience{BackoffBase: time.Millisecond, BackoffMax: 16 * time.Millisecond, Seed: 5}.normalize()
	same := 0
	for attempt := 0; attempt < 8; attempt++ {
		if r.backoffDelay(0, attempt) == other.backoffDelay(0, attempt) {
			same++
		}
	}
	if same == 8 {
		t.Fatal("different seeds produced identical jitter streams")
	}
}

// The event log is a ring: a serving process logs one event per clean
// (query, shard) attempt forever, so the log keeps the newest eventLogCap
// per replica and drops the oldest.
func TestEventLogBounded(t *testing.T) {
	c := corpus.Generate(corpus.CCNewsLike(0.003))
	cfg := DefaultConfig()
	cfg.Workers = 1
	cl := mustCluster(t, cfg, c, 1)
	rare := `"` + c.Terms[len(c.Terms)-1].Term + `"`
	ctx := context.Background()

	// The oldest events: one failed query.
	cl.SetFaultPlan(&mem.FaultPlan{Seed: 1, DeadDevices: []int{0}})
	if _, err := cl.SearchCtx(ctx, rare, 5); !errors.Is(err, mem.ErrDeviceDown) {
		t.Fatalf("marker query: %v", err)
	}
	cl.SetFaultPlan(nil)
	for i := 0; i < 3*eventLogCap; i++ {
		if _, err := cl.Search(rare, 5); err != nil {
			t.Fatal(err)
		}
	}
	evs := cl.Events(0)
	if len(evs) != eventLogCap {
		t.Fatalf("%d events after %d clean queries, want the cap %d", len(evs), 3*eventLogCap, eventLogCap)
	}
	for i, ev := range evs {
		if ev.Kind != EvAttempt {
			t.Fatalf("event %d is %v: the oldest events were not the ones dropped", i, ev.Kind)
		}
	}
	// The newest events: another failed query lands at the tail, in order.
	cl.SetFaultPlan(&mem.FaultPlan{Seed: 1, DeadDevices: []int{0}})
	if _, err := cl.SearchCtx(ctx, rare, 5); !errors.Is(err, mem.ErrDeviceDown) {
		t.Fatalf("tail query: %v", err)
	}
	evs = cl.ReplicaEvents(0, 0)
	if len(evs) != eventLogCap {
		t.Fatalf("%d events, want the cap %d", len(evs), eventLogCap)
	}
	if a, f := evs[len(evs)-2], evs[len(evs)-1]; a.Kind != EvAttempt || f.Kind != EvFailure || !errors.Is(f.Err, mem.ErrDeviceDown) {
		t.Fatalf("log tail is %v, %v; want the newest attempt and its failure", a.Kind, f.Kind)
	}
	cl.ResetEvents()
	if evs := cl.Events(0); len(evs) != 0 {
		t.Fatalf("%d events after ResetEvents", len(evs))
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

// ResetEvents clears every replica's event log (test/benchmark setup).
func (cl *Cluster) ResetEvents() {
	for _, reps := range cl.states {
		for _, s := range reps {
			s.mu.Lock()
			s.events, s.oldest = nil, 0
			s.mu.Unlock()
		}
	}
}
