package pool

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"boss/internal/clock"
	"boss/internal/corpus"
	"boss/internal/docstore"
	"boss/internal/mem"
	"boss/internal/oracle"
)

// replicaTestCorpus is shared across the replica tests; generation and
// index builds dominate their runtime.
func replicaTestCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	return corpus.Generate(corpus.ClueWebLike(0.005))
}

// replicatedConfig is the tests' replicated-cluster base: R copies and a
// serial shard sweep, so the replica counters are deterministic.
func replicatedConfig(r int) Config {
	cfg := DefaultConfig()
	cfg.Replicas = r
	cfg.Workers = 1
	return cfg
}

// copy0Marks snapshots copy 0's counters on every shard.
func copy0Marks(cl *Cluster) []ReplicaStats {
	marks := make([]ReplicaStats, cl.Shards())
	for si := range marks {
		marks[si] = cl.ReplicaStats(si, 0)
	}
	return marks
}

// copy0FailedTries counts the attempts copy 0 of every shard served since
// marks, failing the test unless each of them failed.
func copy0FailedTries(t *testing.T, cl *Cluster, marks []ReplicaStats, what string) int {
	t.Helper()
	total := 0
	for si, mark := range marks {
		st := cl.ReplicaStats(si, 0)
		fails, wins := st.Failures-mark.Failures, st.Successes-mark.Successes
		if wins != 0 {
			t.Fatalf("%s: dead copy 0 of shard %d served %d of %d attempts over cached blocks", what, si, wins, fails+wins)
		}
		total += fails
	}
	return total
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
// single-copy cluster degrades. The copies share the shard's index and
// so its cache entries: asked again for blocks copy 1 has just published,
// the dead copy must still fail every attempt, because its fault draw
// comes before the cache's answer.
func TestReplicaFailoverUncorrectable(t *testing.T) {
	c := replicaTestCorpus(t)
	cl, err := NewCluster(replicatedConfig(2), c, 3)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	if cl.Cache() == nil {
		t.Fatal("the cache is off: the shared-entry check would check nothing")
	}
	plan := &mem.FaultPlan{Seed: 7}
	for si := 0; si < cl.Shards(); si++ {
		plan.DeadDevices = append(plan.DeadDevices, cl.ReplicaDevice(si, 0))
	}
	cl.SetFaultPlan(plan)
	served := func(expr string) {
		t.Helper()
		res, err := cl.SearchCtx(context.Background(), expr, 30)
		if err != nil {
			t.Fatalf("%s: SearchCtx with copy 0 dead: %v", expr, err)
		}
		if res.Degraded != 0 {
			t.Fatalf("%s: Degraded = %b, want 0 (copy 1 holds every shard)", expr, res.Degraded)
		}
		for si, ri := range res.ServedBy {
			if ri != 1 {
				t.Fatalf("%s: shard %d served by replica %d, want 1 (replica 0 is dead)", expr, si, ri)
			}
		}
	}
	deadTries := 0
	for _, expr := range []string{`"t1" AND "t2"`, `"t3" OR "t4"`, `"t5"`} {
		served(expr) // copy 1 decodes and publishes the blocks expr reads
		marks, hits := copy0Marks(cl), cl.CacheStats().Hits
		served(expr) // the same picks, now over published blocks
		if cl.CacheStats().Hits == hits {
			t.Fatalf("%s: the second run found nothing in the cache", expr)
		}
		deadTries += copy0FailedTries(t, cl, marks, expr)
	}
	if deadTries == 0 {
		t.Fatal("no second run tried a dead copy: the shared-entry check checks nothing")
	}

	// Control: the same outage on a single-copy cluster loses the shards.
	single, err := NewCluster(DefaultConfig(), c, 3)
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
	if st := cl.ReplicaStats(0, 1); st.Failures != queries || st.Successes != 0 {
		t.Errorf("copy 1: %d failed and %d served attempts over %d queries; want one failure per query", st.Failures, st.Successes, queries)
	}
	if st := cl.ReplicaStats(0, 1); st.BreakerOpens+st.BreakerRejects != 0 {
		t.Errorf("copy 1's breaker opened or rejected %d times on media errors", st.BreakerOpens+st.BreakerRejects)
	}
	if cl.ReplicaStats(0, 0).BreakerOpens == 0 {
		t.Error("the dead copy's breaker never opened")
	}
}

// TestEmptyPruneIsNotACopyHealthSignal: a query whose terms a shard does not
// hold never touches that shard's device, so it says nothing about any copy's
// health. With copy 0 of shard 0 dead, its breaker open and the cooldown
// over — the next attempt it is picked for would be its half-open probe —
// queries that prune to nothing on shard 0 leave the copy exactly as it was:
// no pick, no count, and above all no success closing the breaker.
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
	dead := &cl.reps[0][0]
	for i := 0; dead.state != brOpen; i++ {
		if i == 200 {
			t.Fatal("the dead copy's breaker never opened")
		}
		if res, err := cl.SearchCtx(context.Background(), fmt.Sprintf(`"t%d"`, i%40+1), 10); err != nil || res.Degraded != 0 {
			t.Fatalf("query %d did not fail over to copy 1: %v", i, err)
		}
	}
	fake.Advance(2 * breakerCooldown)

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
	before := cl.ReplicaStats(0, 0)
	for _, term := range absent[:queries] {
		res, err := cl.SearchCtx(context.Background(), fmt.Sprintf("%q", term), 10)
		if err != nil || res.Degraded != 0 || len(res.TopK) == 0 {
			t.Fatalf("%q: err %v, result %+v; want a complete answer from the shards that hold it", term, err, res)
		}
		if res.ServedBy[0] != -1 || res.PerShard[0] != nil {
			t.Fatalf("%q: shard 0 reports work (copy %d) for a term it does not hold", term, res.ServedBy[0])
		}
	}
	if st := cl.ReplicaStats(0, 0); st != before {
		t.Errorf("the dead copy's counters moved from %+v to %+v on queries that never reached its shard", before, st)
	}
	if dead.state != brOpen {
		t.Errorf("the dead copy's breaker left the open state (now %d) without a device read", dead.state)
	}
}

// TestFetchReplicaFailover: the fetch phase rides the same rotation — a
// dead copy 0 must not cost a single document. Nor may it serve one: asked
// again for documents whose blocks copy 1 has just published, the dead copy
// still fails every attempt.
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
	fetched := func(ids []uint32) {
		t.Helper()
		res, err := cl.FetchBatch(context.Background(), ids)
		if err != nil {
			t.Fatalf("%v: FetchBatch with copy 0 dead: %v", ids, err)
		}
		if res.Degraded != 0 {
			t.Fatalf("%v: fetch Degraded = %b, want 0", ids, res.Degraded)
		}
		for i, d := range res.Docs {
			if d.DocID != ids[i] || len(d.Fields) == 0 {
				t.Fatalf("doc %d came back empty: %+v", ids[i], d)
			}
		}
	}
	last := uint32(c.Spec.NumDocs - 1)
	deadTries := 0
	for i := uint32(0); i < 4; i++ {
		ids := []uint32{i, 5 + i, last - i}
		fetched(ids) // copy 1 decodes and publishes the blocks ids live in
		marks := copy0Marks(cl)
		fetched(ids) // the same picks, now over published blocks
		deadTries += copy0FailedTries(t, cl, marks, fmt.Sprint(ids))
	}
	if deadTries == 0 {
		t.Fatal("no second fetch tried a dead copy: the shared-entry check checks nothing")
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

// TestFaultWiringOrderIndependent: a copy's fetch engine draws from the
// copy's fault domain whether the plan is set before EnsureDocs builds the
// engines or after. On an R=2, 2-shard cluster with shard 0's copy 0 dead,
// both orders answer a fetch sequence with the same documents and Degraded
// masks and leave every copy the same counters.
func TestFaultWiringOrderIndependent(t *testing.T) {
	c := replicaTestCorpus(t)
	base, err := NewCluster(replicatedConfig(2), c, 2)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	last := uint32(c.Spec.NumDocs - 1)
	batches := [][]uint32{{0, 5, last}, {1, last - 1}, {2, 3, last / 2}, {4, 6, 7, 8}, {9}}
	run := func(planFirst bool) []string {
		cl, err := base.Fresh(replicatedConfig(2))
		if err != nil {
			t.Fatalf("Fresh: %v", err)
		}
		plan := &mem.FaultPlan{Seed: 3, DeadDevices: []int{cl.ReplicaDevice(0, 0)}}
		if planFirst {
			cl.SetFaultPlan(plan)
		}
		if err := cl.EnsureDocs(); err != nil {
			t.Fatalf("EnsureDocs: %v", err)
		}
		if !planFirst {
			cl.SetFaultPlan(plan)
		}
		var trace []string
		for _, ids := range batches {
			res, err := cl.FetchBatch(context.Background(), ids)
			if err != nil {
				t.Fatalf("FetchBatch(%v): %v", ids, err)
			}
			trace = append(trace, fmt.Sprintf("%v: degraded %b", ids, res.Degraded))
			for _, d := range res.Docs {
				trace = append(trace, fmt.Sprintf("  %d %q", d.DocID, d.Fields))
			}
		}
		for si := 0; si < cl.Shards(); si++ {
			for ri := 0; ri < cl.Replicas(); ri++ {
				trace = append(trace, fmt.Sprintf("copy %d/%d: %+v", si, ri, cl.ReplicaStats(si, ri)))
			}
		}
		if cl.ReplicaStats(0, 0).Failures == 0 {
			t.Fatalf("planFirst=%v: no fetch tried the dead copy; the comparison checks nothing", planFirst)
		}
		return trace
	}
	before, after := run(true), run(false)
	if !slices.Equal(before, after) {
		t.Fatalf("plan set before the fetch engines exist:\n%s\nplan set after:\n%s", strings.Join(before, "\n"), strings.Join(after, "\n"))
	}
}

// TestDocsBuildErrorSticks: a store source that fails on shard 1 fails the
// document build, and every fetch after it — by id on either shard, or
// chained to a search — returns shard 1's error.
func TestDocsBuildErrorSticks(t *testing.T) {
	c := replicaTestCorpus(t)
	cl, err := NewCluster(replicatedConfig(2), c, 2)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	errShard1 := errors.New("store source: shard 1 unreadable")
	source := cl.docs
	cl.docs = func(lo, hi uint32) (*docstore.Store, error) {
		if lo == cl.offsets[1] {
			return nil, errShard1
		}
		return source(lo, hi)
	}
	last := uint32(c.Spec.NumDocs - 1)
	for i, ids := range [][]uint32{{0, 1}, {last}, {0, last}, {2}} {
		if _, err := cl.FetchBatch(context.Background(), ids); !errors.Is(err, errShard1) {
			t.Fatalf("fetch %d (%v): err = %v, want shard 1's", i, ids, err)
		}
	}
	if _, err := cl.SearchFetchCtx(context.Background(), `"t1"`, 10); !errors.Is(err, errShard1) {
		t.Fatalf("SearchFetchCtx: err = %v, want shard 1's", err)
	}
	if err := cl.EnsureDocs(); !errors.Is(err, errShard1) {
		t.Fatalf("EnsureDocs: err = %v, want shard 1's", err)
	}
}
