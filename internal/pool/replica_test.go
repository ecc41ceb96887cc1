package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"boss/internal/clock"
	"boss/internal/corpus"
	"boss/internal/mem"
	"boss/internal/oracle"
)

// replicaTestCorpus is shared across the replica tests; generation and
// index builds dominate their runtime.
func replicaTestCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	return corpus.Generate(corpus.ClueWebLike(0.005))
}

// replicatedConfig is the tests' replicated-cluster base: R copies,
// retries armed so rotation can fail over, serial shard sweep for
// deterministic event logs.
func replicatedConfig(r int) Config {
	cfg := DefaultConfig()
	cfg.Replicas = r
	cfg.Resilience = DefaultResilience()
	cfg.Workers = 1
	return cfg
}

// TestReplicaSelectionDeterministic: replica routing is a pure function
// of (seed, query, shard, attempt) — two identically-configured clusters
// serving the same query stream must pick byte-identical replicas.
func TestReplicaSelectionDeterministic(t *testing.T) {
	c := replicaTestCorpus(t)
	exprs := []string{`"t1"`, `"t2"`, `"t3" AND "t4"`, `"t1" OR "t6"`, `"t5"`}
	route := func() [][]int {
		cl, err := NewCluster(replicatedConfig(3), c, 4)
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		var out [][]int
		for _, e := range exprs {
			res, err := cl.SearchCtx(context.Background(), e, 20)
			if err != nil {
				t.Fatalf("SearchCtx(%q): %v", e, err)
			}
			out = append(out, res.ServedBy)
		}
		return out
	}
	a, b := route(), route()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("replica routing diverged across identical runs:\n%v\n%v", a, b)
	}
	// The stream must actually spread across copies — a constant pick
	// would pass the determinism check while hiding a broken draw.
	seen := map[int]bool{}
	for _, q := range a {
		for _, ri := range q {
			seen[ri] = true
		}
	}
	if len(seen) < 2 {
		t.Fatalf("5 queries x 4 shards landed on a single replica: %v", a)
	}
}

// TestReplicaFailoverUncorrectable: with R=2 and copy 0 of every shard
// dead, retries rotate onto the surviving copy, so queries complete
// fully served with no degradation — where the same plan on a
// single-copy cluster degrades.
func TestReplicaFailoverUncorrectable(t *testing.T) {
	c := replicaTestCorpus(t)
	cl, err := NewCluster(replicatedConfig(2), c, 3)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	plan := &mem.FaultPlan{Seed: 7}
	for si := 0; si < cl.Shards(); si++ {
		plan.DeadDevices = append(plan.DeadDevices, cl.ReplicaDevice(si, 0))
	}
	cl.SetFaultPlan(plan)
	res, err := cl.SearchCtx(context.Background(), `"t1" AND "t2"`, 30)
	if err != nil {
		t.Fatalf("SearchCtx with copy 0 dead: %v", err)
	}
	if res.Degraded != 0 {
		t.Fatalf("Degraded = %b, want 0 (copy 1 holds every shard)", res.Degraded)
	}
	for si, ri := range res.ServedBy {
		if ri != 1 {
			t.Fatalf("shard %d served by replica %d, want 1 (replica 0 is dead)", si, ri)
		}
	}

	// Control: the same outage on a single-copy cluster loses the shards.
	single, err := NewCluster(func() Config { c := DefaultConfig(); c.Resilience = DefaultResilience(); return c }(), c, 3)
	if err != nil {
		t.Fatalf("NewCluster(R=1): %v", err)
	}
	single.SetFaultPlan(&mem.FaultPlan{Seed: 7, DeadDevices: []int{0, 1, 2}})
	if _, err := single.SearchCtx(context.Background(), `"t1" AND "t2"`, 30); err == nil {
		t.Fatal("single-copy cluster with every device dead returned a result")
	}
}

// TestMediaErrorIsNotACopyHealthSignal: with copy 0 dead and every block of
// copy 1 uncorrectable, each query reads copy 1 exactly once — a
// replica-permanent error is never retried on the copy that returned it,
// and the loop stops when no other copy is allowed — and copy 1's breaker
// stays closed however many queries fail on it: a bad block says nothing
// about the copy's health. The dead copy's breaker still opens.
func TestMediaErrorIsNotACopyHealthSignal(t *testing.T) {
	c := replicaTestCorpus(t)
	cfg := replicatedConfig(2)
	cfg.CacheBytes = 0
	cfg.Clock = clock.NewFakeClock(time.Unix(0, 0))
	cl, err := NewCluster(cfg, c, 1)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cl.SetFaultPlan(&mem.FaultPlan{Seed: 7, UncorrectableRate: 0.999999, DeadDevices: []int{cl.ReplicaDevice(0, 0)}})
	const queries = 20
	for i := 0; i < queries; i++ {
		_, err := cl.SearchCtx(context.Background(), fmt.Sprintf(`"t%d"`, i+1), 10)
		if !errors.Is(err, mem.ErrMediaUncorrectable) && !errors.Is(err, mem.ErrDeviceDown) {
			t.Fatalf("query %d: err = %v, want the last copy's own failure", i, err)
		}
	}
	count := func(ri int, kind EventKind) (n int) {
		for _, ev := range cl.ReplicaEvents(0, ri) {
			if ev.Kind == kind {
				n++
			}
		}
		return n
	}
	if a, f := count(1, EvAttempt), count(1, EvFailure); a != queries || f != queries {
		t.Errorf("copy 1: %d attempts, %d failures over %d queries; want one of each per query", a, f, queries)
	}
	if n := count(1, EvBreakerOpen) + count(1, EvBreakerReject); n != 0 {
		t.Errorf("copy 1's breaker opened or rejected %d times on media errors", n)
	}
	if count(0, EvBreakerOpen) == 0 {
		t.Error("the dead copy's breaker never opened")
	}
}

// TestEmptyPruneIsNotACopyHealthSignal: a query whose terms a shard does not
// hold never touches that shard's device, so it says nothing about any copy's
// health. With copy 0 of shard 0 dead, its breaker open and the cooldown
// over — the next attempt it is picked for would be its half-open probe —
// queries that prune to nothing on shard 0 leave the copy exactly as it was:
// no pick, no event, and above all no success closing the breaker.
func TestEmptyPruneIsNotACopyHealthSignal(t *testing.T) {
	c := replicaTestCorpus(t)
	cfg := replicatedConfig(2)
	fake := clock.NewFakeClock(time.Unix(0, 0))
	cfg.Clock = fake
	cl, err := NewCluster(cfg, c, 4)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cl.SetFaultPlan(&mem.FaultPlan{Seed: 7, DeadDevices: []int{cl.ReplicaDevice(0, 0)}})
	dead := cl.states[0][0]
	for i := 0; dead.state != brOpen; i++ {
		if i == 200 {
			t.Fatal("the dead copy's breaker never opened")
		}
		if res, err := cl.SearchCtx(context.Background(), fmt.Sprintf(`"t%d"`, i%40+1), 10); err != nil || res.Degraded != 0 {
			t.Fatalf("query %d did not fail over to copy 1: %v", i, err)
		}
	}
	fake.Advance(2 * cfg.Resilience.BreakerCooldown)

	var absent []string // terms some other shard holds and shard 0 does not
	for term := range cl.shards[1].Lists {
		if _, ok := cl.shards[0].Lists[term]; !ok {
			absent = append(absent, term)
		}
	}
	sort.Strings(absent)
	const queries = 32
	if len(absent) < queries {
		t.Fatalf("only %d terms are absent from shard 0; the corpus is too small for this test", len(absent))
	}
	before := len(cl.ReplicaEvents(0, 0))
	for _, term := range absent[:queries] {
		res, err := cl.SearchCtx(context.Background(), fmt.Sprintf("%q", term), 10)
		if err != nil || res.Degraded != 0 || len(res.TopK) == 0 {
			t.Fatalf("%q: err %v, result %+v; want a complete answer from the shards that hold it", term, err, res)
		}
		if res.ServedBy[0] != -1 || res.PerShard[0] != nil {
			t.Fatalf("%q: shard 0 reports work (copy %d) for a term it does not hold", term, res.ServedBy[0])
		}
	}
	if evs := cl.ReplicaEvents(0, 0); len(evs) != before {
		t.Errorf("the dead copy's log gained %v from queries that never reached its shard", evs[before:])
	}
	if dead.state != brOpen {
		t.Errorf("the dead copy's breaker left the open state (now %d) without a device read", dead.state)
	}
}

// TestFetchReplicaFailover: the fetch phase rides the same rotation — a
// dead copy 0 must not cost a single document.
func TestFetchReplicaFailover(t *testing.T) {
	c := replicaTestCorpus(t)
	cl, err := NewCluster(replicatedConfig(2), c, 2)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	plan := &mem.FaultPlan{Seed: 3}
	for si := 0; si < cl.Shards(); si++ {
		plan.DeadDevices = append(plan.DeadDevices, cl.ReplicaDevice(si, 0))
	}
	cl.SetFaultPlan(plan)
	ids := []uint32{0, 5, uint32(c.Spec.NumDocs - 1)}
	res, err := cl.FetchBatch(context.Background(), ids)
	if err != nil {
		t.Fatalf("FetchBatch with copy 0 dead: %v", err)
	}
	if res.Degraded != 0 {
		t.Fatalf("fetch Degraded = %b, want 0", res.Degraded)
	}
	for i, d := range res.Docs {
		if d.DocID != ids[i] || len(d.Fields) == 0 {
			t.Fatalf("doc %d came back empty: %+v", ids[i], d)
		}
	}
}

// TestFreshSharesArtifactsMatchesResults: Fresh must produce a cluster
// that answers identically to its receiver while owning fresh serving
// state, and must reject a bad config.
func TestFreshSharesArtifactsMatchesResults(t *testing.T) {
	c := replicaTestCorpus(t)
	base, err := NewCluster(DefaultConfig(), c, 3)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	fr, err := base.Fresh(replicatedConfig(2))
	if err != nil {
		t.Fatalf("Fresh: %v", err)
	}
	if fr.Replicas() != 2 {
		t.Fatalf("Fresh Replicas() = %d, want 2", fr.Replicas())
	}
	want, err := base.SearchCtx(context.Background(), `"t1" OR "t3"`, 25)
	if err != nil {
		t.Fatalf("base search: %v", err)
	}
	got, err := fr.SearchCtx(context.Background(), `"t1" OR "t3"`, 25)
	if err != nil {
		t.Fatalf("fresh search: %v", err)
	}
	if err := oracle.Same(got.TopK, want.TopK); err != nil {
		t.Fatalf("fresh cluster's answer: %v", err)
	}
	bad := DefaultConfig()
	bad.Replicas = 0
	if _, err := base.Fresh(bad); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("Fresh(zero Replicas): err = %v, want ErrBadConfig", err)
	}
}

// hedgedCluster builds a 1-shard, 2-replica cluster with the given hedge
// cutoff on a fake clock (a positive cutoff arms hedging, 0 leaves it off).
// Nobody advances that clock unless a test's runFn does, so the cutoff fires
// exactly when the test says: never, by default.
func hedgedCluster(t *testing.T, c *corpus.Corpus, cutoff time.Duration) (*Cluster, *clock.FakeClock) {
	t.Helper()
	fake := clock.NewFakeClock(time.Unix(0, 0))
	cfg := replicatedConfig(2)
	cfg.Resilience.HedgeCutoff = cutoff
	cfg.Clock = fake
	cl, err := NewCluster(cfg, c, 1)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return cl, fake
}

// eventTrace renders a shard's event log without wall-clock fields so
// two runs can be compared byte for byte.
func eventTrace(cl *Cluster, si int) string {
	var s string
	for ri := 0; ri < cl.Replicas(); ri++ {
		for _, ev := range cl.ReplicaEvents(si, ri) {
			s += fmt.Sprintf("r%d:%s:a%d ", ev.Replica, ev.Kind, ev.Attempt)
		}
	}
	return s
}

// TestHedgePrimaryWinsBeforeCutoff: when the primary answers before the
// timer fires, no backup is spawned and the result is unhedged.
func TestHedgePrimaryWinsBeforeCutoff(t *testing.T) {
	c := replicaTestCorpus(t)
	cl, _ := hedgedCluster(t, c, time.Millisecond) // the clock never moves: the cutoff never fires
	res, err := cl.SearchCtx(context.Background(), `"t1"`, 15)
	if err != nil {
		t.Fatalf("SearchCtx: %v", err)
	}
	if res.Hedged != 0 || res.HedgeWins != 0 {
		t.Fatalf("Hedged=%d HedgeWins=%d, want 0/0 (primary beat the cutoff)", res.Hedged, res.HedgeWins)
	}
	for si := 0; si < cl.Shards(); si++ {
		for _, ev := range cl.Events(si) {
			if ev.Kind == EvHedge {
				t.Fatalf("EvHedge recorded with the timer never firing: %+v", ev)
			}
		}
	}
}

// hedgePrimary computes which replica the rotation will pick as the
// attempt-0 primary for expr on shard 0 — the same pure draw
// pickReplica makes — so the tests can pin their straggler to it.
func hedgePrimary(cl *Cluster, expr string) int {
	return int(replicaDraw(uint64(cl.res.Seed), mem.StableKey(expr), 0) % uint64(cl.Replicas()))
}

// stragglerRun returns a runFn under which the given replica takes the
// hedge cutoff — it advances the fake clock by it, firing the armed cutoff
// inline — and then blocks until its context dies (the straggling
// primary); every other call goes to the real attempt path (the hedged
// backup).
func stragglerRun(cl *Cluster, fake *clock.FakeClock, straggler int) (runFn func(context.Context, shardWork, int, int) shardOut, stalled *atomic.Int32) {
	stalled = new(atomic.Int32)
	return func(ctx context.Context, w shardWork, si, ri int) shardOut {
		if ri == straggler {
			fake.Advance(cl.res.HedgeCutoff)
			<-ctx.Done()
			stalled.Add(1)
			return shardOut{err: shardError(si, ctx.Err())}
		}
		return cl.attempt(ctx, w, si, ri)
	}, stalled
}

// hedgeEvents counts the EvHedge entries in shard 0's replica logs.
func hedgeEvents(cl *Cluster) int {
	hedges := 0
	for _, ev := range cl.Events(0) {
		if ev.Kind == EvHedge {
			hedges++
		}
	}
	return hedges
}

// TestHedgeBackupWins: a straggling primary is hedged; the backup's
// result is adopted, the loser is cancelled, and — critically — the
// abandoned primary never counts against its breaker. With HedgeCutoff 0
// the same straggler is never hedged: hedging is off, so the attempt runs
// on the primary directly and never reaches the stalling runFn.
func TestHedgeBackupWins(t *testing.T) {
	c := replicaTestCorpus(t)
	const expr = `"t1" AND "t2"`

	off, fake := hedgedCluster(t, c, 0)
	run, stalled := stragglerRun(off, fake, hedgePrimary(off, expr))
	off.runFn = run
	// Bounded, so a stall reached by mistake fails the test instead of hanging it.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := off.SearchCtx(ctx, expr, 15)
	if err != nil {
		t.Fatalf("HedgeCutoff 0: SearchCtx: %v", err)
	}
	if res.Hedged != 0 || res.HedgeWins != 0 || hedgeEvents(off) != 0 || stalled.Load() != 0 {
		t.Fatalf("HedgeCutoff 0: Hedged=%d HedgeWins=%d, %d EvHedge, %d stalls; want none",
			res.Hedged, res.HedgeWins, hedgeEvents(off), stalled.Load())
	}

	cl, fake := hedgedCluster(t, c, time.Millisecond)
	run, stalled = stragglerRun(cl, fake, hedgePrimary(cl, expr))
	cl.runFn = run

	p, err := prepare(expr)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	want := cl.attempt(context.Background(), shardWork{Plan: p.Plan, k: 15}, 0, 0)
	if want.err != nil {
		t.Fatalf("direct attempt: %v", want.err)
	}
	res, err = cl.SearchCtx(context.Background(), expr, 15)
	if err != nil {
		t.Fatalf("SearchCtx: %v", err)
	}
	if res.Hedged != 1 || res.HedgeWins != 1 {
		t.Fatalf("Hedged=%d HedgeWins=%d, want 1/1", res.Hedged, res.HedgeWins)
	}
	if err := oracle.Same(res.TopK, want.topk); err != nil {
		t.Fatalf("hedged result: %v", err)
	}
	// The cancelled primary must actually have been cancelled.
	deadline := time.Now().Add(2 * time.Second)
	for stalled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("straggling primary was never cancelled")
		}
		time.Sleep(time.Millisecond)
	}
	// Loser accounting: no replica may carry a failure event — the
	// abandoned primary's outcome never reaches a breaker.
	for ri := 0; ri < cl.Replicas(); ri++ {
		for _, ev := range cl.ReplicaEvents(0, ri) {
			if ev.Kind == EvFailure || ev.Kind == EvBreakerOpen {
				t.Fatalf("hedge loser settled a breaker: %+v", ev)
			}
		}
	}
	// Exactly one EvHedge, on the backup.
	if hedges := hedgeEvents(cl); hedges != 1 {
		t.Fatalf("EvHedge count = %d, want 1", hedges)
	}
}

// TestHedgeOrderingDeterministic: the scripted straggler scenario must
// produce a byte-identical resilience event trace across two fresh runs
// (and, under -race, with the race detector watching the hedge spawn).
func TestHedgeOrderingDeterministic(t *testing.T) {
	c := replicaTestCorpus(t)
	trace := func() string {
		cl, fake := hedgedCluster(t, c, time.Millisecond)
		run, _ := stragglerRun(cl, fake, hedgePrimary(cl, `"t2"`))
		cl.runFn = run
		if _, err := cl.SearchCtx(context.Background(), `"t2"`, 10); err != nil {
			t.Fatalf("SearchCtx: %v", err)
		}
		// The loser's goroutine records nothing, but wait for it anyway so
		// the trace can't race a late event append.
		time.Sleep(5 * time.Millisecond)
		return eventTrace(cl, 0)
	}
	a, b := trace(), trace()
	if a != b {
		t.Fatalf("hedge event traces diverged:\n%q\n%q", a, b)
	}
	if a == "" {
		t.Fatal("hedge scenario recorded no events")
	}
}

// TestHedgeLoserGoroutineExits: the cancelled-loser path must not leak —
// after the hedged query completes and the loser is cancelled, the
// goroutine count returns to its baseline.
func TestHedgeLoserGoroutineExits(t *testing.T) {
	c := replicaTestCorpus(t)
	cl, fake := hedgedCluster(t, c, time.Millisecond)
	run, stalled := stragglerRun(cl, fake, hedgePrimary(cl, `"t1"`))
	cl.runFn = run

	parkHelpers(runtime.GOMAXPROCS(0))
	before := runtime.NumGoroutine()
	if _, err := cl.SearchCtx(context.Background(), `"t1"`, 10); err != nil {
		t.Fatalf("SearchCtx: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if stalled.Load() > 0 && runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain: before=%d now=%d stalled=%d",
				before, runtime.NumGoroutine(), stalled.Load())
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestHedgeRidesPrimaryWhenBackupSick: when every other copy's breaker
// rejects at hedge-fire time, the attempt rides the primary instead of
// failing, and nothing is recorded as hedged.
func TestHedgeRidesPrimaryWhenBackupSick(t *testing.T) {
	c := replicaTestCorpus(t)
	cl, fake := hedgedCluster(t, c, time.Millisecond)
	// Open the backup's breaker by failing it past the threshold; the fake
	// clock moves by one cutoff only, so the cooldown never lets a half-open
	// probe through.
	primary := hedgePrimary(cl, `"t1"`)
	backup := 1 - primary
	for i := 0; i < cl.res.BreakerThreshold; i++ {
		cl.states[0][backup].failure(0, fake.Now(), cl.res.BreakerThreshold, errors.New("seeded failure"))
	}
	// The primary takes the cutoff and answers only once the backup's
	// breaker has logged a reject: runShardHedged has then taken the fire
	// branch, looked for a backup and found none.
	cl.runFn = func(ctx context.Context, w shardWork, si, ri int) shardOut {
		fake.Advance(cl.res.HedgeCutoff)
		for deadline := time.Now().Add(2 * time.Second); ; runtime.Gosched() {
			if evs := cl.ReplicaEvents(0, backup); evs[len(evs)-1].Kind == EvBreakerReject {
				break
			}
			if time.Now().After(deadline) {
				return shardOut{err: shardError(si, errors.New("the fired cutoff never probed the backup"))}
			}
		}
		return cl.attempt(ctx, w, si, ri)
	}
	res, err := cl.SearchCtx(context.Background(), `"t1"`, 10)
	if err != nil {
		t.Fatalf("SearchCtx: %v", err)
	}
	if res.Hedged != 0 {
		t.Fatalf("Hedged = %d, want 0 (no healthy backup to hedge onto)", res.Hedged)
	}
	if len(res.TopK) == 0 {
		t.Fatal("query with sick backups returned no hits")
	}
}
