package harness

import (
	"strings"
	"testing"
	"time"

	"boss/internal/corpus"
)

// TestOverloadExprsDeterministicAndSkewed verifies the sweep's traffic
// sampler: same seed gives the same schedule, and a head-heavier
// exponent concentrates more probability mass on the top terms (which is
// what makes the dedup-rate column meaningful).
func TestOverloadExprsDeterministicAndSkewed(t *testing.T) {
	c := corpus.Generate(corpus.ClueWebLike(0.01))
	a := overloadExprs(c, 500, 1.2, 42)
	b := overloadExprs(c, 500, 1.2, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("expr %d differs across runs with the same seed: %q vs %q", i, a[i], b[i])
		}
	}
	for _, e := range a {
		if !strings.Contains(e, " AND ") {
			t.Fatalf("sampled expr %q is not a conjunction", e)
		}
	}
	repeats := func(exprs []string) int {
		seen := map[string]bool{}
		n := 0
		for _, e := range exprs {
			if seen[e] {
				n++
			}
			seen[e] = true
		}
		return n
	}
	flat := repeats(overloadExprs(c, 500, 0.9, 42))
	head := repeats(a)
	if head <= flat {
		t.Fatalf("s=1.2 produced %d repeats, s=0.9 produced %d; higher skew must repeat more", head, flat)
	}
}

// TestOverloadReduce checks the fold from per-request slots to a point's
// rates and percentiles.
func TestOverloadReduce(t *testing.T) {
	slots := make([]overloadSlot, 10)
	for i := 0; i < 8; i++ {
		slots[i] = overloadSlot{lat: time.Duration(i+1) * time.Millisecond, done: true, good: true}
	}
	slots[7].degraded = true
	slots[8] = overloadSlot{shed: true}
	slots[9] = overloadSlot{lat: 50 * time.Millisecond, done: true} // late: counted, not goodput
	pt := overloadReduce(slots, 2, 1.2, 1000, time.Second)

	if pt.GoodputQPS != 8 {
		t.Fatalf("GoodputQPS = %v, want 8 (late completion must not count)", pt.GoodputQPS)
	}
	if pt.ShedRate != 0.1 {
		t.Fatalf("ShedRate = %v, want 0.1", pt.ShedRate)
	}
	if got, want := pt.DegradeRate, 1.0/9; got != want {
		t.Fatalf("DegradeRate = %v, want %v", got, want)
	}
	if pt.P50LatencyUS != 5000 {
		t.Fatalf("P50 = %vus, want 5000", pt.P50LatencyUS)
	}
	if pt.P999LatencyUS != 50000 {
		t.Fatalf("P99.9 = %vus, want the 50ms straggler", pt.P999LatencyUS)
	}
	if pt.Mult != 2 || pt.ZipfS != 1.2 || pt.OfferedQPS != 1000 || pt.Requests != 10 {
		t.Fatalf("point identity fields wrong: %+v", pt)
	}
}

// TestLatPercentileUS pins the percentile read on edge cases.
func TestLatPercentileUS(t *testing.T) {
	if got := latPercentileUS(nil, 0.99); got != 0 {
		t.Fatalf("empty slice: %v, want 0", got)
	}
	one := []time.Duration{3 * time.Microsecond}
	if got := latPercentileUS(one, 0.5); got != 3 {
		t.Fatalf("single element: %v, want 3", got)
	}
	sorted := make([]time.Duration, 100)
	for i := range sorted {
		sorted[i] = time.Duration(i+1) * time.Microsecond
	}
	if got := latPercentileUS(sorted, 0.99); got != 99 {
		t.Fatalf("p99 of 1..100us = %v, want 99", got)
	}
	// 0.99*150 = 148.5: nearest-rank rounds the rank up to the 149th
	// sample; a floor form (n*99/100 - 1) would read the 148th and hide
	// one more straggler.
	sorted = make([]time.Duration, 150)
	for i := range sorted {
		sorted[i] = time.Duration(i+1) * time.Microsecond
	}
	if got := latPercentileUS(sorted, 0.99); got != 149 {
		t.Fatalf("p99 of 1..150us = %v, want 149 (ceiling rank)", got)
	}
}

// TestOpenLoopFoldsSlots drives the shared open-loop driver with a stub
// backend whose ten requests reproduce TestOverloadReduce's mix — eight
// prompt answers (one degraded), one shed at admission, one delivered
// past the deadline — and checks each slot's fate and that the fold gives
// the same rates.
func TestOpenLoopFoldsSlots(t *testing.T) {
	const shedAt, degradedAt, lateAt = 8, 7, 9
	flushed := 0
	slots, elapsed := openLoop(10, 1000, func(i int, arrival time.Time) func() (bool, bool) {
		switch i {
		case shedAt:
			return nil
		case lateAt:
			return func() (bool, bool) {
				time.Sleep(time.Until(arrival.Add(overloadDeadline + time.Millisecond)))
				return true, false
			}
		}
		return func() (bool, bool) { return true, i == degradedAt }
	}, func() { flushed++ })

	if flushed != 1 {
		t.Fatalf("flush ran %d times, want once after the last arrival", flushed)
	}
	if elapsed < overloadDeadline {
		t.Fatalf("elapsed %v: the driver returned before the late request was delivered", elapsed)
	}
	for i, sl := range slots {
		want := overloadSlot{lat: sl.lat, done: true, good: true, degraded: i == degradedAt}
		switch i {
		case shedAt:
			want = overloadSlot{shed: true}
		case lateAt:
			want.good = false
			if sl.lat <= overloadDeadline {
				t.Fatalf("slot %d: latency %v, want past the %v deadline", i, sl.lat, overloadDeadline)
			}
		}
		if sl != want {
			t.Fatalf("slot %d = %+v, want %+v", i, sl, want)
		}
	}
	pt := overloadReduce(slots, 2, 1.2, 1000, time.Second)
	if pt.GoodputQPS != 8 || pt.ShedRate != 0.1 || pt.DegradeRate != 1.0/9 || pt.Requests != 10 {
		t.Fatalf("fold = %+v, want goodput 8, shed 0.1, degrade 1/9 of 10 requests", pt)
	}
	if pt.P999LatencyUS <= float64(overloadDeadline/time.Microsecond) {
		t.Fatalf("P99.9 = %vus, want the late request's latency", pt.P999LatencyUS)
	}
}

// TestOpenLoopLatencyFromScheduledArrival stalls the pacing goroutine
// inside the first submit for longer than the deadline. Every later
// request is then submitted behind schedule and answered instantly: its
// latency must still include the time it spent waiting to be submitted
// (coordinated omission), so none of them counts toward goodput.
func TestOpenLoopLatencyFromScheduledArrival(t *testing.T) {
	const stall = overloadDeadline + 10*time.Millisecond
	slots, _ := openLoop(10, 10000, func(i int, _ time.Time) func() (bool, bool) {
		if i == 0 {
			time.Sleep(stall)
		}
		return func() (bool, bool) { return true, false }
	}, nil)
	for i, sl := range slots {
		// Request i was scheduled i*100us after the start, all inside the stall.
		if min := stall - time.Duration(i)*100*time.Microsecond; sl.lat < min {
			t.Fatalf("slot %d: latency %v < %v: measured from the submit, not the scheduled arrival", i, sl.lat, min)
		}
		if !sl.done || sl.good {
			t.Fatalf("slot %d = %+v: a request answered past its deadline must be done but not good", i, sl)
		}
	}
}

// TestOverloadReportSchema pins the versioned envelope consumers of the
// -chaos/-overload JSON key on.
func TestOverloadReportSchema(t *testing.T) {
	if BenchSchema != "bossbench/v3" {
		t.Fatalf("BenchSchema = %q", BenchSchema)
	}
}
