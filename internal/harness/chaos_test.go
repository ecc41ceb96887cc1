package harness

import (
	"fmt"
	"testing"

	"boss/internal/pool"
)

// TestChaosControlPoint pins what Chaos's doc comment promises of the
// rate-0 control: a fixed query count, full availability, and no fault
// handling of any kind, on single-copy and replicated clusters.
func TestChaosControlPoint(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			rep := Chaos(NewContext(tinyConfig()), 2, replicas, false)
			if rep.Schema != BenchSchema || rep.Shards != 2 || rep.Replicas != replicas {
				t.Fatalf("header/identity fields wrong: %+v", rep)
			}
			p := rep.Points[0]
			if p.FaultRate != 0 {
				t.Fatalf("first point has fault rate %v, want the rate-0 control", p.FaultRate)
			}
			if want := chaosPasses * rep.Batch; p.Queries != want || p.FullyOK != want {
				t.Fatalf("queries %d, ok %d, want %d passes x %d-query batch = %d of each", p.Queries, p.FullyOK, chaosPasses, rep.Batch, want)
			}
			if p.Availability != 1 {
				t.Fatalf("availability %v, want 1", p.Availability)
			}
			if p.Degraded != 0 || p.Failed != 0 || p.TransientRetries != 0 || p.ShardRetries != 0 || p.BreakerOpens != 0 {
				t.Fatalf("control point handled faults it was never given: %+v", p)
			}
		})
	}
}

// outcome strips a point of its three host measurements; everything left
// is decided by the query sequence and the virtual clock.
func outcome(p ChaosPoint) ChaosPoint {
	p.QPS, p.P50LatencyUS, p.P99LatencyUS = 0, 0, 0
	return p
}

// TestChaosDeterministic runs the sweep twice per mode at the default
// scale (what `bossbench -chaos [-replicas 2 [-replicakill]]` runs) and
// requires every outcome column equal, then pins the availability claims
// README and DESIGN §14 make about those sweeps.
func TestChaosDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale sweeps")
	}
	ctx := NewContext(QuickConfig())
	sweep := func(replicas int, kill bool) []ChaosPoint {
		t.Helper()
		a, b := Chaos(ctx, 0, replicas, kill).Points, Chaos(ctx, 0, replicas, kill).Points
		for i := range a {
			if outcome(a[i]) != outcome(b[i]) {
				t.Fatalf("replicas=%d kill=%v, point %d differs between two runs:\n%+v\n%+v", replicas, kill, i, a[i], b[i])
			}
			if a[i].Queries != 1000 {
				t.Fatalf("replicas=%d kill=%v, point %d: %d queries, want 1000", replicas, kill, i, a[i].Queries)
			}
		}
		return a
	}
	split := func(p ChaosPoint) [3]int { return [3]int{p.FullyOK, p.Degraded, p.Failed} }

	// One copy: an uncorrectable block degrades its query, nothing fails.
	if got := split(sweep(1, false)[2]); got != [3]int{850, 150, 0} {
		t.Errorf("R=1 at 1%%: ok/degraded/failed = %v, want [850 150 0]", got)
	}
	// Two copies: a query degrades only when both copies hold a bad block.
	if got := split(sweep(2, false)[2]); got != [3]int{995, 5, 0} {
		t.Errorf("R=2 at 1%%: ok/degraded/failed = %v, want [995 5 0]", got)
	}
	// Two copies, copy 0 of every shard dead: failover is free while the
	// media is (nearly) clean, and at 1% the surviving copy degrades what a
	// single copy would — it neither fails queries nor loses its breaker.
	kill := sweep(2, true)
	for _, p := range kill[:2] {
		if got := split(p); got != [3]int{1000, 0, 0} {
			t.Errorf("replica kill at %v: ok/degraded/failed = %v, want [1000 0 0]", p.FaultRate, got)
		}
	}
	if p := kill[2]; p.Failed != 0 || p.Degraded > 235 {
		t.Errorf("replica kill at 1%%: %d degraded, %d failed; want at most 235 and 0", p.Degraded, p.Failed)
	}
	// DESIGN §14's shard-retries and breaker-opens columns: every attempt
	// on a dead copy pays one backoff, and only the dead copies' breakers
	// open.
	for i, want := range [][2]int{{48, 20}, {48, 20}, {40, 20}} {
		if got := [2]int{kill[i].ShardRetries, kill[i].BreakerOpens}; got != want {
			t.Errorf("replica kill at %v: shard-retries/breaker-opens = %v, want %v", kill[i].FaultRate, got, want)
		}
	}

	// The same 1% replica-kill point again, keeping the cluster: no breaker
	// ever opened on a surviving copy.
	s := ctx.ClueWeb()
	base, err := pool.NewCluster(chaosConfig(2, nil), s.Corpus, 4)
	if err != nil {
		t.Fatal(err)
	}
	pt, cl := chaosPoint(base, ctx.Cfg.Seed, chaosExprs(s.Corpus, ctx.Cfg.Seed, chaosBatch), ctx.Cfg.K, chaosRates[2], true)
	if outcome(pt) != outcome(kill[2]) {
		t.Fatalf("the 1%% replica-kill point differs from the sweep's:\n%+v\n%+v", pt, kill[2])
	}
	for si := 0; si < cl.Shards(); si++ {
		if st := cl.ReplicaStats(si, 1); st.BreakerOpens != 0 {
			t.Fatalf("shard %d: the surviving copy's breaker opened: %+v", si, st)
		}
	}
}
