package sim

import (
	"testing"
	"testing/quick"
)

func TestResourceSerializes(t *testing.T) {
	r := NewResource("bus")
	end1 := r.Acquire(0, 100)
	if end1 != 100 {
		t.Fatalf("first acquire ends at %d, want 100", end1)
	}
	// Second request arrives while busy: it must queue.
	end2 := r.Acquire(50, 100)
	if end2 != 200 {
		t.Fatalf("queued acquire ends at %d, want 200", end2)
	}
	// Third arrives after the resource is free: no queueing.
	end3 := r.Acquire(500, 100)
	if end3 != 600 {
		t.Fatalf("late acquire ends at %d, want 600", end3)
	}
	if r.BusyTime() != 300 {
		t.Fatalf("busy = %d, want 300", r.BusyTime())
	}
	if r.Requests() != 3 {
		t.Fatalf("requests = %d, want 3", r.Requests())
	}
}

func TestResourceUtilization(t *testing.T) {
	r := NewResource("chan")
	r.Acquire(0, 250)
	if got := r.Utilization(1000); got != 0.25 {
		t.Fatalf("utilization = %v, want 0.25", got)
	}
	if got := r.Utilization(0); got != 0 {
		t.Fatalf("utilization over zero elapsed = %v, want 0", got)
	}
	// Utilization is clamped at 1 even if accounting overshoots elapsed.
	if got := r.Utilization(100); got != 1 {
		t.Fatalf("clamped utilization = %v, want 1", got)
	}
}

func TestResourceReset(t *testing.T) {
	r := NewResource("x")
	r.Acquire(0, 10)
	r.Reset()
	if r.BusyTime() != 0 || r.Requests() != 0 || r.FreeAt() != 0 {
		t.Fatal("reset did not clear state")
	}
}

// Property: for any sequence of (arrival, service) pairs with non-decreasing
// arrivals, completion times are strictly increasing and each completion is
// >= arrival + service.
func TestResourceMonotonicProperty(t *testing.T) {
	f := func(arrivals []uint16, services []uint16) bool {
		r := NewResource("p")
		at := Time(0)
		prevEnd := Time(-1)
		n := len(arrivals)
		if len(services) < n {
			n = len(services)
		}
		for i := 0; i < n; i++ {
			at += Time(arrivals[i])
			d := Duration(services[i]) + 1
			end := r.Acquire(at, d)
			if end < at+d {
				return false
			}
			if end <= prevEnd {
				return false
			}
			prevEnd = end
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeConversions(t *testing.T) {
	if Seconds(Second) != 1.0 {
		t.Fatal("Seconds(Second) != 1")
	}
	if FromSeconds(0.5) != 500*Millisecond {
		t.Fatalf("FromSeconds(0.5) = %d", FromSeconds(0.5))
	}
	if Seconds(FromSeconds(2.5)) != 2.5 {
		t.Fatal("round trip failed")
	}
}
