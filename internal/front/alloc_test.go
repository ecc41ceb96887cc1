package front

import (
	"testing"
	"time"

	"boss/internal/clock"
)

// newQuietFront builds a front that never flushes on its own during the
// measurement window: a huge batch target, a far deadline, and a fake
// clock that never advances, so the executor goroutine stays parked and
// contributes no background allocations.
func newQuietFront(t *testing.T) *Front {
	t.Helper()
	be := &fakeBackend{shards: 4}
	f, err := New(Config{
		BatchTarget: 1 << 20,
		MaxQueue:    1 << 20,
		Timeout:     time.Hour,
		Clock:       clock.NewFakeClock(time.Unix(0, 0)),
		Tenants:     map[string]TenantConfig{"t": {Rate: 1e9, Burst: 1e9}},
	}, be)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(f.Close)
	return f
}

// TestAdmissionPathAllocs pins the zero-allocation guarantee of the
// admit path: in steady state (expression in the key cache, pooled
// flight and ticket available), Submit of a fresh flight followed by
// Cancel must not allocate.
func TestAdmissionPathAllocs(t *testing.T) {
	f := newQuietFront(t)
	req := Request{Expr: `"a" AND "b"`, K: 10, Tenant: "t"}
	// Warm the key cache, the free lists, and the map buckets.
	for i := 0; i < 8; i++ {
		tk, err := f.Submit(req)
		if err != nil {
			t.Fatalf("warmup Submit: %v", err)
		}
		tk.Cancel()
	}
	avg := testing.AllocsPerRun(1000, func() {
		tk, err := f.Submit(req)
		if err != nil {
			t.Fatal("admission failed")
		}
		tk.Cancel()
	})
	if avg != 0 {
		t.Fatalf("admission path allocates %v allocs/op, want 0", avg)
	}
}

// TestDedupAttachPathAllocs pins the zero-allocation guarantee of the
// dedup hit path: attaching to an existing in-flight twin and
// deregistering must not allocate.
func TestDedupAttachPathAllocs(t *testing.T) {
	f := newQuietFront(t)
	req := Request{Expr: `"a" AND "b"`, K: 10, Tenant: "t"}
	// Pin one flight with a waiter that never cancels, then warm the
	// ticket pool through attach/cancel cycles.
	anchor, err := f.Submit(req)
	if err != nil {
		t.Fatalf("anchor Submit: %v", err)
	}
	for i := 0; i < 8; i++ {
		tk, err := f.Submit(req)
		if err != nil {
			t.Fatalf("warmup Submit: %v", err)
		}
		if !tk.fl.pending {
			t.Fatal("anchor flight unexpectedly flushed")
		}
		tk.Cancel()
	}
	avg := testing.AllocsPerRun(1000, func() {
		tk, err := f.Submit(req)
		if err != nil {
			t.Fatal("attach failed")
		}
		tk.Cancel()
	})
	if avg != 0 {
		t.Fatalf("dedup hit path allocates %v allocs/op, want 0", avg)
	}
	f.Flush()
	if res := anchor.Wait(nil); res.Err != nil {
		t.Fatalf("anchor waiter: %v", res.Err)
	}
	if m := f.Metrics(); m.DedupHits < 1000 {
		t.Fatalf("measured loop did not hit the dedup path: %+v", m)
	}
}
