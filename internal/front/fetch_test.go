package front

import (
	"context"
	"errors"
	"testing"
	"time"

	"boss/internal/clock"
)

// TestFetchCoalescing: identical concurrent id lists share one flight;
// different lists do not; every waiter sees the payloads.
func TestFetchCoalescing(t *testing.T) {
	be := &fakeBackend{shards: 4}
	clk := clock.NewFakeClock(time.Unix(0, 0))
	f := start(t, Config{BatchTarget: 64, Clock: clk}, be)

	a1, err := f.Submit(Request{FetchIDs: []uint32{3, 1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := f.Submit(Request{FetchIDs: []uint32{3, 1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := f.Submit(Request{FetchIDs: []uint32{3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	f.Flush()

	for i, tk := range []*Ticket{a1, a2} {
		res := tk.Wait(context.Background())
		if res.Err != nil {
			t.Fatalf("waiter %d: %v", i, res.Err)
		}
		if len(res.Docs) != 3 || res.Docs[0].DocID != 3 || res.Docs[2].DocID != 4 {
			t.Fatalf("waiter %d docs = %+v", i, res.Docs)
		}
		if len(res.TopK) != 0 {
			t.Fatalf("waiter %d: fetch result carries a ranking", i)
		}
		if wantDedup := i > 0; res.DedupHit != wantDedup {
			t.Fatalf("waiter %d: DedupHit = %v, want %v", i, res.DedupHit, wantDedup)
		}
	}
	if res := b1.Wait(context.Background()); res.Err != nil || len(res.Docs) != 2 {
		t.Fatalf("prefix list result: %+v", res)
	}
	if sizes := be.batchSizes(); len(sizes) != 1 || sizes[0] != 2 {
		t.Fatalf("batch sizes = %v, want one batch of two flights", sizes)
	}
	m := f.Metrics()
	if m.Fetches != 3 || m.Admitted != 2 || m.DedupHits != 1 {
		t.Fatalf("metrics = %+v, want 3 fetches / 2 admitted / 1 dedup", m)
	}
}

// TestFetchSharesBatch: queries and fetches admitted together flush as
// one heterogeneous batch, and the fetch's id list reaches the backend.
func TestFetchSharesBatch(t *testing.T) {
	be := &fakeBackend{shards: 2}
	clk := clock.NewFakeClock(time.Unix(0, 0))
	f := start(t, Config{BatchTarget: 64, Clock: clk}, be)

	q, err := f.Submit(Request{Expr: `"a"`, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	d, err := f.Submit(Request{FetchIDs: []uint32{7}})
	if err != nil {
		t.Fatal(err)
	}
	f.Flush()
	if res := q.Wait(context.Background()); res.Err != nil || len(res.TopK) != 1 {
		t.Fatalf("query result: %+v", res)
	}
	if res := d.Wait(context.Background()); res.Err != nil || len(res.Docs) != 1 || res.Docs[0].DocID != 7 {
		t.Fatalf("fetch result: %+v", res)
	}
	be.mu.Lock()
	defer be.mu.Unlock()
	if len(be.batches) != 1 || len(be.batches[0]) != 2 {
		t.Fatalf("batches = %v", be.batches)
	}
	var sawFetch bool
	for _, bq := range be.batches[0] {
		if len(bq.FetchIDs) > 0 {
			sawFetch = true
			if bq.FetchIDs[0] != 7 || bq.Expr != "" {
				t.Fatalf("fetch batch query = %+v", bq)
			}
		}
	}
	if !sawFetch {
		t.Fatal("no fetch query reached the backend")
	}
}

// TestFetchMixedRequestRejected: a request carrying both an expression
// and an id list is a caller bug, rejected before admission.
func TestFetchMixedRequestRejected(t *testing.T) {
	be := &fakeBackend{shards: 2}
	f := start(t, Config{Clock: clock.NewFakeClock(time.Unix(0, 0))}, be)
	if _, err := f.Submit(Request{Expr: `"a"`, FetchIDs: []uint32{1}}); !errors.Is(err, ErrMixedRequest) {
		t.Fatalf("err = %v, want ErrMixedRequest", err)
	}
	if m := f.Metrics(); m.Submitted != 0 {
		t.Fatalf("rejected request counted as submitted: %+v", m)
	}
}

// TestFetchDegradedAdmission: fetches ride the same pressure ladder —
// past the watermark a fetch degrades to a shard subset and the shed
// shards show up in the result mask.
func TestFetchDegradedAdmission(t *testing.T) {
	be := &fakeBackend{shards: 4}
	clk := clock.NewFakeClock(time.Unix(0, 0))
	f := start(t, Config{BatchTarget: 64, MaxQueue: 4, DegradeWatermark: 0.25, Clock: clk}, be)

	// First admission fills to the watermark (1 of 4); the second degrades.
	t1, err := f.Submit(Request{FetchIDs: []uint32{1}})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := f.Submit(Request{FetchIDs: []uint32{2}})
	if err != nil {
		t.Fatal(err)
	}
	f.Flush()
	if res := t1.Wait(context.Background()); res.Err != nil || res.Degraded != 0 {
		t.Fatalf("pre-watermark fetch: %+v", res)
	}
	res := t2.Wait(context.Background())
	if res.Err != nil || res.Degraded == 0 {
		t.Fatalf("past-watermark fetch not degraded: %+v", res)
	}
	if len(res.Docs) != 1 {
		t.Fatalf("degraded fetch lost its doc slot: %+v", res.Docs)
	}
}

// TestFetchCanonDisjoint: fetch keys can never collide with query keys,
// so a fetch and a search never coalesce.
func TestFetchCanonDisjoint(t *testing.T) {
	if k := fetchCanon([]uint32{1, 2}); k[0] != 0 {
		t.Fatalf("fetch canon %q lacks the NUL prefix", k)
	}
	if a, b := fetchCanon([]uint32{12}), fetchCanon([]uint32{1, 2}); a == b {
		t.Fatal("distinct id lists share a canon")
	}
}
