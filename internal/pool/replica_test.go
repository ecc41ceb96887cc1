package pool

import (
	"context"
	"errors"
	"fmt"
	"sort"
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
