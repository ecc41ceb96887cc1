package harness

import (
	"fmt"
	"testing"
)

// TestChaosControlPoint pins what Chaos's doc comment promises of the
// rate-0 control: a fixed query count, full availability, and no fault
// handling of any kind, on single-copy and replicated clusters. Hedged is
// pinned only where hedging is off: on a replicated sweep the cutoff is a
// host timer, and a 2 ms scheduler stall legitimately fires a backup.
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
			if replicas == 1 && p.Hedged != 0 {
				t.Fatalf("single-copy control fired %d hedges with hedging off", p.Hedged)
			}
		})
	}
}
