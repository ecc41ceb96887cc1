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
// so a fetch and a search never coalesce, and the key a recorder logs for a
// fetch renders its whole id list.
func TestFetchCanonDisjoint(t *testing.T) {
	if fetchTag[0] != 0 {
		t.Fatalf("fetch tag %q lacks the NUL prefix", fetchTag)
	}
	if k := fetchCanon([]uint32{1, 2}); k != fetchTag+":1:2" {
		t.Fatalf("fetch canon %q, want the tag and the ids", k)
	}
	if a, b := fetchCanon([]uint32{12}), fetchCanon([]uint32{1, 2}); a == b {
		t.Fatal("distinct id lists share a canon")
	}
}

// TestFetchKeyCollision: a fetch is keyed by a hash of its id list, and a
// key match counts only when the lists are equal. Equal lists coalesce;
// two different lists made to collide (through the Front's hash seam) do
// not, both complete with their own documents, and the flights map keeps the
// first list's flight until that flight itself retires — neither cancelling
// nor completing the other list's flight removes it. A recorder still logs
// the rendered id list.
func TestFetchKeyCollision(t *testing.T) {
	be := &fakeBackend{shards: 4, block: make(chan struct{})}
	rec := &Recorder{}
	f := start(t, Config{BatchTarget: 64, Clock: clock.NewFakeClock(time.Unix(0, 0)), Recorder: rec}, be)
	t.Cleanup(func() { close(be.block) }) // runs before f.Close: frees the executor
	f.fetchHash = func([]uint32) uint64 { return 7 }
	a, b := []uint32{3, 1, 4}, []uint32{5, 9}
	key := flightKey{canon: fetchTag, ids: 7}
	submit := func(ids []uint32) *Ticket {
		t.Helper()
		tk, err := f.Submit(Request{FetchIDs: ids})
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}
	holder := func() *flight {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.flights[key]
	}
	wantDocs := func(tk *Ticket, ids []uint32, dedup bool) {
		t.Helper()
		res := tk.Wait(context.Background())
		if res.Err != nil || len(res.Docs) != len(ids) {
			t.Fatalf("fetch of %v: %+v", ids, res)
		}
		for i, id := range ids {
			if res.Docs[i].DocID != id {
				t.Fatalf("fetch of %v delivered %+v", ids, res.Docs)
			}
		}
		if res.DedupHit != dedup {
			t.Fatalf("fetch of %v: DedupHit = %v, want %v", ids, res.DedupHit, dedup)
		}
	}

	// Equal lists coalesce; a colliding list gets a flight of its own,
	// outside the map, and a cancelled one leaves the holder's entry alone.
	a1, a2 := submit(a), submit(a)
	if a2.fl != a1.fl || holder() != a1.fl {
		t.Fatal("equal id lists did not share the mapped flight")
	}
	if b1 := submit(b); b1.fl == a1.fl || b1.fl.keyed {
		t.Fatal("a colliding id list joined or displaced the holder's flight")
	} else if b1.Cancel(); holder() != a1.fl {
		t.Fatal("withdrawing the colliding flight removed the holder's entry")
	}
	b2 := submit(b)
	f.Flush()
	be.block <- struct{}{}
	wantDocs(a1, a, false)
	wantDocs(a2, a, true)
	wantDocs(b2, b, false)
	if holder() != nil {
		t.Fatal("a completed flight is still mapped")
	}

	// The colliding list's flight completes while the other list's flight
	// holds the key: the holder stays mapped and still coalesces its twins.
	x, y := submit(a), submit(b)
	x.Cancel() // frees the key; y, admitted while x held it, stays unmapped
	f.Flush()  // y's batch waits in the backend
	z := submit(a)
	if holder() != z.fl {
		t.Fatal("a fetch admitted onto a free key is not mapped")
	}
	be.block <- struct{}{}
	wantDocs(y, b, false)
	if holder() != z.fl {
		t.Fatal("completing the colliding flight removed the holder's entry")
	}
	w := submit(a)
	f.Flush()
	be.block <- struct{}{}
	wantDocs(z, a, false)
	wantDocs(w, a, true)

	if m := f.Metrics(); m.DedupHits != 2 {
		t.Fatalf("metrics = %+v, want the two equal-list coalesces", m)
	}
	var logged bool
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, d := range rec.ds {
		if d.Kind == DAdmit && d.Key == "\x00f:3:1:4" {
			logged = true
		}
	}
	if !logged {
		t.Fatalf("no admission logged under the rendered key: %q", rec.ds)
	}
}
