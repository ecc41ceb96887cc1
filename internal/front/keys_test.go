package front

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"boss/internal/clock"
	"boss/internal/query"
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

// TestTermLimitRefusedAtAdmission: the term limit sits in front of the
// normaliser, so an expression over it is refused by Submit itself — like a
// parse error, not at Wait — for about what parsing it costs, and the key
// cache remembers the refusal, not a key. An AND of n two-way ORs has 2^n
// conjuncts: normalised first, the 24-term one allocated 2 MB and left a
// 155 KB key in the cache, the 40-term one gigabytes, all under the mutex.
func TestTermLimitRefusedAtAdmission(t *testing.T) {
	f := start(t, Config{BatchTarget: 1 << 20, Timeout: time.Hour, Clock: clock.NewFakeClock(time.Unix(0, 0))}, &fakeBackend{shards: 4})
	for _, pairs := range []int{12, 20} {
		var b strings.Builder
		for i := 0; i < pairs; i++ {
			if i > 0 {
				b.WriteString(" AND ")
			}
			fmt.Fprintf(&b, `("a%d" OR "b%d")`, i, i)
		}
		expr := b.String()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tk, err := f.Submit(Request{Expr: expr, K: 10})
		runtime.ReadMemStats(&after)
		var lim *query.TermLimitError
		if tk != nil || !errors.As(err, &lim) || lim.Terms != 2*pairs {
			t.Fatalf("%d terms: Submit = %v, %v; want the term-limit refusal at admission", 2*pairs, tk, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("%d terms: refusing allocated %d bytes, want under 64 KiB", 2*pairs, got)
		}
		f.mu.Lock()
		e, cached := f.keys[expr]
		f.mu.Unlock()
		if !cached || e.prep != nil || e.err != err {
			t.Errorf("%d terms: key cache holds %+v (cached %v), want the refusal and no prepared query", 2*pairs, e, cached)
		}
		if _, again := f.Submit(Request{Expr: expr, K: 10}); again != err {
			t.Errorf("%d terms: second Submit = %v, want the cached refusal", 2*pairs, again)
		}
	}
	if m := f.Metrics(); m.Submitted != 0 || m.Admitted != 0 {
		t.Fatalf("refused expressions were counted: %+v", m)
	}
}

// TestKeyCacheHitCarriesPreparedQuery: an expression is prepared on its first
// sighting only; every later flight of it hands the backend the key cache's
// own *query.Prepared, and a twin spelled differently brings its own, equal
// in everything the backend reads.
func TestKeyCacheHitCarriesPreparedQuery(t *testing.T) {
	be := &fakeBackend{shards: 4}
	f := start(t, Config{BatchTarget: 1, Timeout: time.Hour, Clock: clock.NewFakeClock(time.Unix(0, 0))}, be)
	const expr, twin = `"b" AND ("a" OR "c")`, `("a" OR "c") AND "b"`
	for _, e := range []string{expr, expr, twin, expr} {
		tk, err := f.Submit(Request{Expr: e, K: 10})
		if err != nil {
			t.Fatalf("Submit(%s): %v", e, err)
		}
		if res := tk.Wait(context.Background()); res.Err != nil {
			t.Fatalf("%s: %v", e, res.Err)
		}
	}
	f.mu.Lock()
	cached := f.keys[expr].prep
	f.mu.Unlock()
	want, err := query.Prepare(expr)
	if err != nil || !reflect.DeepEqual(cached, want) {
		t.Fatalf("key cache holds %+v, want Prepare's %+v (%v)", cached, want, err)
	}
	be.mu.Lock()
	defer be.mu.Unlock()
	if len(be.batches) != 4 {
		t.Fatalf("%d batches, want 4 (BatchTarget 1)", len(be.batches))
	}
	for i, qs := range be.batches {
		q := qs[0]
		if q.Expr == expr && q.Prepared != cached {
			t.Errorf("batch %d: %s arrived with %p, want the key cache's %p", i, q.Expr, q.Prepared, cached)
		}
		if q.Prepared == nil || q.Prepared.Key != want.Key {
			t.Errorf("batch %d: %s arrived with %+v, want key %q", i, q.Expr, q.Prepared, want.Key)
		}
	}
	if q := be.batches[2][0]; q.Expr != twin || q.Prepared == cached {
		t.Errorf("the twin's flight carries %q / %p, want its own expression and preparation", q.Expr, q.Prepared)
	}
}
