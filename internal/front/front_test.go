package front

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"boss/internal/clock"
	"boss/internal/pool"
	"boss/internal/topk"
)

// fakeBackend answers every query with a fixed ranking and records the
// batches it executed. It is deterministic and allocation-free per query
// beyond what the test permits.
type fakeBackend struct {
	mu      sync.Mutex
	shards  int
	batches [][]pool.BatchQuery
	block   chan struct{} // non-nil: ExecuteBatch waits for a signal
}

func (b *fakeBackend) Shards() int { return b.shards }

func (b *fakeBackend) ExecuteBatch(ctx context.Context, qs []pool.BatchQuery, out []Out) {
	if b.block != nil {
		<-b.block
	}
	b.mu.Lock()
	cp := append([]pool.BatchQuery(nil), qs...)
	b.batches = append(b.batches, cp)
	b.mu.Unlock()
	for i, q := range qs {
		var deg uint64
		if q.ShardMask != 0 {
			bits := b.shards
			if bits > 64 {
				bits = 64
			}
			full := uint64(1)<<uint(bits) - 1
			deg = full &^ q.ShardMask
		}
		if len(q.FetchIDs) > 0 {
			docs := make([]pool.FetchedDoc, len(q.FetchIDs))
			for j, id := range q.FetchIDs {
				docs[j] = pool.FetchedDoc{DocID: id, Fields: [][]byte{[]byte("d"), {byte(id)}}}
			}
			out[i] = Out{Docs: docs, Degraded: deg}
			continue
		}
		out[i] = Out{TopK: []topk.Entry{{DocID: uint32(len(q.Expr)), Score: 1}}, Degraded: deg}
	}
}

func (b *fakeBackend) batchSizes() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	sizes := make([]int, len(b.batches))
	for i, qs := range b.batches {
		sizes[i] = len(qs)
	}
	return sizes
}

func start(t *testing.T, cfg Config, be Backend) *Front {
	t.Helper()
	f, err := New(cfg, be)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(f.Close)
	return f
}

func TestCoalescingFansOutOneExecution(t *testing.T) {
	be := &fakeBackend{shards: 4}
	clk := clock.NewFakeClock(time.Unix(0, 0))
	f := start(t, Config{BatchTarget: 64, Clock: clk}, be)

	// Equivalent expressions under DNF canonicalization must share a flight.
	exprs := []string{`"a" AND "b"`, `"b" AND "a"`, `"a" AND "b" AND "b"`}
	tickets := make([]*Ticket, len(exprs))
	for i, e := range exprs {
		tk, err := f.Submit(Request{Expr: e, K: 10})
		if err != nil {
			t.Fatalf("Submit(%q): %v", e, err)
		}
		tickets[i] = tk
	}
	f.Flush()
	for i, tk := range tickets {
		res := tk.Wait(context.Background())
		if res.Err != nil {
			t.Fatalf("waiter %d: %v", i, res.Err)
		}
		if len(res.TopK) != 1 {
			t.Fatalf("waiter %d: got %d results", i, len(res.TopK))
		}
		if wantDedup := i > 0; res.DedupHit != wantDedup {
			t.Errorf("waiter %d: DedupHit = %v, want %v", i, res.DedupHit, wantDedup)
		}
	}
	if sizes := be.batchSizes(); len(sizes) != 1 || sizes[0] != 1 {
		t.Fatalf("batch sizes = %v, want one batch of one query", sizes)
	}
	m := f.Metrics()
	if m.Submitted != 3 || m.Admitted != 1 || m.DedupHits != 2 {
		t.Fatalf("metrics = %+v, want 3 submitted / 1 admitted / 2 dedup hits", m)
	}
}

func TestSizeTargetFlush(t *testing.T) {
	be := &fakeBackend{shards: 2}
	clk := clock.NewFakeClock(time.Unix(0, 0))
	f := start(t, Config{BatchTarget: 3, Clock: clk}, be)

	exprs := []string{`"a"`, `"b"`, `"c"`, `"d"`}
	tickets := make([]*Ticket, 0, len(exprs))
	for _, e := range exprs {
		tk, err := f.Submit(Request{Expr: e})
		if err != nil {
			t.Fatalf("Submit(%q): %v", e, err)
		}
		tickets = append(tickets, tk)
	}
	// The first three flushed at the size target; the fourth is pending.
	for _, tk := range tickets[:3] {
		if res := tk.Wait(context.Background()); res.Err != nil {
			t.Fatalf("size-flushed waiter: %v", res.Err)
		}
	}
	f.Flush()
	if res := tickets[3].Wait(context.Background()); res.Err != nil {
		t.Fatalf("manually flushed waiter: %v", res.Err)
	}
	if sizes := be.batchSizes(); len(sizes) != 2 || sizes[0] != 3 || sizes[1] != 1 {
		t.Fatalf("batch sizes = %v, want [3 1]", sizes)
	}
	m := f.Metrics()
	if m.FlushSize != 1 || m.FlushManual != 1 {
		t.Fatalf("flush metrics = %+v, want one size flush and one manual flush", m)
	}
}

func TestDeadlineSlackFlush(t *testing.T) {
	be := &fakeBackend{shards: 2}
	clk := clock.NewFakeClock(time.Unix(0, 0))
	f := start(t, Config{
		BatchTarget: 64,
		Timeout:     10 * time.Millisecond,
		FlushSlack:  2 * time.Millisecond,
		Clock:       clk,
	}, be)

	tk, err := f.Submit(Request{Expr: `"a"`})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Nothing flushes before deadline−slack...
	clk.Advance(7 * time.Millisecond)
	if sizes := be.batchSizes(); len(sizes) != 0 {
		t.Fatalf("premature flush: %v", sizes)
	}
	// ...and the slack point forces it.
	clk.Advance(time.Millisecond)
	if res := tk.Wait(context.Background()); res.Err != nil {
		t.Fatalf("deadline-flushed waiter: %v", res.Err)
	}
	if m := f.Metrics(); m.FlushDeadline != 1 {
		t.Fatalf("metrics = %+v, want one deadline flush", m)
	}
}

func TestUrgentAttachTightensFlushTimer(t *testing.T) {
	be := &fakeBackend{shards: 2}
	clk := clock.NewFakeClock(time.Unix(0, 0))
	f := start(t, Config{
		BatchTarget: 64,
		Timeout:     20 * time.Millisecond,
		FlushSlack:  2 * time.Millisecond,
		Clock:       clk,
	}, be)

	slow, err := f.Submit(Request{Expr: `"a"`})
	if err != nil {
		t.Fatalf("Submit slow: %v", err)
	}
	// A coalescing waiter with a much tighter deadline pulls the flush in.
	fast, err := f.Submit(Request{Expr: `"a"`, Deadline: clk.Now().Add(5 * time.Millisecond)})
	if err != nil {
		t.Fatalf("Submit fast: %v", err)
	}
	clk.Advance(3 * time.Millisecond)
	if res := fast.Wait(context.Background()); res.Err != nil || !res.DedupHit {
		t.Fatalf("fast waiter: err=%v dedup=%v", res.Err, res.DedupHit)
	}
	if res := slow.Wait(context.Background()); res.Err != nil {
		t.Fatalf("slow waiter: %v", res.Err)
	}
	if sizes := be.batchSizes(); len(sizes) != 1 || sizes[0] != 1 {
		t.Fatalf("batch sizes = %v, want one coalesced batch", sizes)
	}
}

func TestOverloadRejectsWhenQueueFull(t *testing.T) {
	be := &fakeBackend{shards: 2, block: make(chan struct{})}
	clk := clock.NewFakeClock(time.Unix(0, 0))
	f := start(t, Config{BatchTarget: 1, MaxQueue: 2, DegradeWatermark: 1, Clock: clk}, be)
	defer close(be.block)

	// BatchTarget 1 flushes each admission immediately; the blocked
	// backend keeps them in-system, so the third distinct query finds
	// the queue full.
	t1, err := f.Submit(Request{Expr: `"a"`})
	if err != nil {
		t.Fatalf("Submit a: %v", err)
	}
	t2, err := f.Submit(Request{Expr: `"b"`})
	if err != nil {
		t.Fatalf("Submit b: %v", err)
	}
	if _, err := f.Submit(Request{Expr: `"c"`}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Submit c: err = %v, want ErrOverloaded", err)
	}
	// Coalescing onto an in-flight twin still works at capacity.
	t3, err := f.Submit(Request{Expr: `"a"`})
	if err != nil {
		t.Fatalf("Submit dup at capacity: %v", err)
	}
	be.block <- struct{}{}
	be.block <- struct{}{}
	for _, tk := range []*Ticket{t1, t2, t3} {
		if res := tk.Wait(context.Background()); res.Err != nil {
			t.Fatalf("waiter: %v", res.Err)
		}
	}
	if m := f.Metrics(); m.RejectedFull != 1 || m.DedupHits != 1 {
		t.Fatalf("metrics = %+v, want 1 rejection and 1 dedup hit", m)
	}
}

func TestTokenBucketShedsLowDegradesNormal(t *testing.T) {
	be := &fakeBackend{shards: 4}
	clk := clock.NewFakeClock(time.Unix(0, 0))
	f := start(t, Config{
		BatchTarget: 64,
		Clock:       clk,
		Tenants:     map[string]TenantConfig{"t": {Rate: 1, Burst: 1}},
	}, be)

	// First request drains the bucket.
	tk0, err := f.Submit(Request{Expr: `"a"`, Tenant: "t"})
	if err != nil {
		t.Fatalf("Submit 0: %v", err)
	}
	// Low priority with an empty bucket sheds.
	if _, err := f.Submit(Request{Expr: `"b"`, Tenant: "t", Priority: PriLow}); !errors.Is(err, ErrShed) {
		t.Fatalf("low-priority submit: err = %v, want ErrShed", err)
	}
	// Normal priority degrades to a partial-shard answer instead.
	tk1, err := f.Submit(Request{Expr: `"c"`, Tenant: "t"})
	if err != nil {
		t.Fatalf("normal-priority submit: %v", err)
	}
	// Refilled bucket admits in full again.
	clk.Advance(2 * time.Second)
	tk2, err := f.Submit(Request{Expr: `"d"`, Tenant: "t", Priority: PriLow})
	if err != nil {
		t.Fatalf("refilled submit: %v", err)
	}
	f.Flush()
	if res := tk0.Wait(context.Background()); res.Degraded != 0 {
		t.Fatalf("full admission degraded: %064b", res.Degraded)
	}
	if res := tk1.Wait(context.Background()); res.Degraded == 0 {
		t.Fatal("token-degraded admission executed in full")
	}
	if res := tk2.Wait(context.Background()); res.Degraded != 0 {
		t.Fatalf("refilled admission degraded: %064b", res.Degraded)
	}
	m := f.Metrics()
	if m.ShedTokens != 1 || m.Degraded != 1 {
		t.Fatalf("metrics = %+v, want 1 shed and 1 degraded", m)
	}
}

func TestPressureWatermarkDegradesAllButHigh(t *testing.T) {
	be := &fakeBackend{shards: 4}
	clk := clock.NewFakeClock(time.Unix(0, 0))
	f := start(t, Config{BatchTarget: 64, MaxQueue: 4, DegradeWatermark: 0.5, Clock: clk}, be)

	// Two full admissions reach the 0.5 × 4 watermark.
	ta, _ := f.Submit(Request{Expr: `"a"`})
	tb, _ := f.Submit(Request{Expr: `"b"`})
	// At the watermark, Normal degrades, High does not.
	tc, err := f.Submit(Request{Expr: `"c"`})
	if err != nil {
		t.Fatalf("Submit c: %v", err)
	}
	td, err := f.Submit(Request{Expr: `"d"`, Priority: PriHigh})
	if err != nil {
		t.Fatalf("Submit d: %v", err)
	}
	f.Flush()
	if res := ta.Wait(context.Background()); res.Degraded != 0 {
		t.Fatal("pre-watermark admission degraded")
	}
	if res := tb.Wait(context.Background()); res.Degraded != 0 {
		t.Fatal("pre-watermark admission degraded")
	}
	if res := tc.Wait(context.Background()); res.Degraded == 0 {
		t.Fatal("past-watermark Normal admission not degraded")
	}
	if res := td.Wait(context.Background()); res.Degraded != 0 {
		t.Fatal("High-priority admission degraded under pressure")
	}
}

func TestDegradeMaskRotates(t *testing.T) {
	be := &fakeBackend{shards: 4}
	clk := clock.NewFakeClock(time.Unix(0, 0))
	f := start(t, Config{
		BatchTarget: 64,
		Clock:       clk,
		// A zero-rate bucket forces every Normal admission to degrade.
		Tenants: map[string]TenantConfig{"z": {}},
	}, be)

	var masks []uint64
	for _, e := range []string{`"a"`, `"b"`, `"c"`, `"d"`} {
		tk, err := f.Submit(Request{Expr: e, Tenant: "z"})
		if err != nil {
			t.Fatalf("Submit(%q): %v", e, err)
		}
		f.Flush()
		res := tk.Wait(context.Background())
		masks = append(masks, res.Degraded)
	}
	if masks[0] == masks[1] {
		t.Fatalf("degrade masks did not rotate: %v", masks)
	}
	if masks[0] != masks[2] || masks[1] != masks[3] {
		t.Fatalf("rotation period wrong for 4 shards dropping 2: %v", masks)
	}
}

func TestSingleShardBackendCannotDegrade(t *testing.T) {
	be := &fakeBackend{shards: 1}
	clk := clock.NewFakeClock(time.Unix(0, 0))
	f := start(t, Config{
		BatchTarget: 64,
		Clock:       clk,
		Tenants:     map[string]TenantConfig{"z": {}},
	}, be)
	tk, err := f.Submit(Request{Expr: `"a"`, Tenant: "z"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	f.Flush()
	if res := tk.Wait(context.Background()); res.Degraded != 0 {
		t.Fatal("one-shard backend produced a degraded result")
	}
}

func TestCancelDeregistersWaiter(t *testing.T) {
	be := &fakeBackend{shards: 2}
	clk := clock.NewFakeClock(time.Unix(0, 0))
	f := start(t, Config{BatchTarget: 64, Clock: clk}, be)

	// Sole waiter cancelling withdraws the flight entirely.
	tk, err := f.Submit(Request{Expr: `"a"`})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if res := tk.Cancel(); !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("Cancel: err = %v, want context.Canceled", res.Err)
	}
	f.Flush()
	if sizes := be.batchSizes(); len(sizes) != 0 {
		t.Fatalf("withdrawn flight executed: %v", sizes)
	}

	// One of two coalesced waiters cancelling leaves the other served.
	t1, _ := f.Submit(Request{Expr: `"b"`})
	t2, _ := f.Submit(Request{Expr: `"b"`})
	t1.Cancel()
	f.Flush()
	if res := t2.Wait(context.Background()); res.Err != nil {
		t.Fatalf("surviving waiter: %v", res.Err)
	}
	if m := f.Metrics(); m.Cancelled != 2 {
		t.Fatalf("metrics = %+v, want 2 cancellations", m)
	}
}

func TestWaitHonorsContext(t *testing.T) {
	be := &fakeBackend{shards: 2, block: make(chan struct{})}
	clk := clock.NewFakeClock(time.Unix(0, 0))
	f := start(t, Config{BatchTarget: 1, Clock: clk}, be)

	tk, err := f.Submit(Request{Expr: `"a"`})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res := tk.Wait(ctx); !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("Wait under dead context: err = %v", res.Err)
	}
	close(be.block)
}

func TestSubmitAfterClose(t *testing.T) {
	be := &fakeBackend{shards: 2}
	f, err := New(Config{Clock: clock.NewFakeClock(time.Unix(0, 0))}, be)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tk, err := f.Submit(Request{Expr: `"a"`})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	f.Close()
	// Close flushed and drained: the outstanding ticket is served.
	if res := tk.Wait(context.Background()); res.Err != nil {
		t.Fatalf("ticket across Close: %v", res.Err)
	}
	if _, err := f.Submit(Request{Expr: `"b"`}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrClosed", err)
	}
	f.Close() // idempotent
}

func TestParseErrorSurfacesWithoutAdmission(t *testing.T) {
	be := &fakeBackend{shards: 2}
	clk := clock.NewFakeClock(time.Unix(0, 0))
	f := start(t, Config{Clock: clk}, be)
	for i := 0; i < 2; i++ { // second hit exercises the cached negative entry
		if _, err := f.Submit(Request{Expr: `"a" AND`}); err == nil {
			t.Fatal("malformed expression admitted")
		}
	}
	if m := f.Metrics(); m.Submitted != 0 || m.Admitted != 0 {
		t.Fatalf("metrics = %+v, want nothing admitted", m)
	}
}
