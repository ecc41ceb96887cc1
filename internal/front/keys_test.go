package front

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"boss/internal/clock"
)

// TestKeyCacheBounded: the expression → canonical-key cache gains an entry
// for every distinct string submitted — malformed ones and ones rejected at
// MaxQueue included — and must not grow past maxKeys; clearing it must not
// cost an in-flight flight its coalescing.
func TestKeyCacheBounded(t *testing.T) {
	be := &fakeBackend{shards: 4}
	f := start(t, Config{
		BatchTarget: 1 << 20, // nothing flushes until the test says so
		MaxQueue:    8,
		Timeout:     time.Hour,
		Clock:       clock.NewFakeClock(time.Unix(0, 0)),
	}, be)
	keyCount := func() int {
		f.mu.Lock()
		defer f.mu.Unlock()
		return len(f.keys)
	}

	const twin = `"a" AND "b"`
	first, err := f.Submit(Request{Expr: twin, K: 10})
	if err != nil {
		t.Fatalf("Submit(twin): %v", err)
	}

	var admitted, rejected, malformed, peak int
	for i := 0; i < 70_000; i++ {
		expr := fmt.Sprintf(`"t%d"`, i)
		if i%3 == 0 {
			expr = fmt.Sprintf(`bad%d`, i) // unquoted: does not parse
		}
		_, err := f.Submit(Request{Expr: expr, K: 10})
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, ErrOverloaded):
			rejected++
		default:
			malformed++
		}
		if n := keyCount(); n > peak {
			peak = n
		}
	}
	if admitted != 7 || rejected == 0 || malformed == 0 || admitted+rejected+malformed != 70_000 {
		t.Fatalf("stream mix: %d admitted, %d rejected at MaxQueue, %d malformed", admitted, rejected, malformed)
	}
	if peak > maxKeys {
		t.Fatalf("key cache peaked at %d entries, bound is %d", peak, maxKeys)
	}
	f.mu.Lock()
	_, cached := f.keys[twin]
	f.mu.Unlock()
	if cached {
		t.Fatal("the twin's key survived 70k distinct expressions: the cache was never cleared")
	}

	// Seen before the clear and again after it: the re-parse reproduces the
	// canonical key, so the request still attaches to its in-flight twin.
	second, err := f.Submit(Request{Expr: twin, K: 10})
	if err != nil {
		t.Fatalf("Submit(twin) after the clear: %v", err)
	}
	f.Flush()
	for i, tk := range []*Ticket{first, second} {
		res := tk.Wait(context.Background())
		if res.Err != nil {
			t.Fatalf("twin waiter %d: %v", i, res.Err)
		}
		if res.DedupHit != (i == 1) {
			t.Fatalf("twin waiter %d: DedupHit = %v", i, res.DedupHit)
		}
	}
	executed := 0
	be.mu.Lock()
	for _, qs := range be.batches {
		for _, q := range qs {
			if q.Expr == twin {
				executed++
			}
		}
	}
	be.mu.Unlock()
	if executed != 1 {
		t.Fatalf("twin executed %d times, want 1", executed)
	}
}
