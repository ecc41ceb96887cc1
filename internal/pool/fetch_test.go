package pool

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"boss/internal/clock"
	"boss/internal/corpus"
	"boss/internal/mem"
	"boss/internal/oracle"
)

// fetchFixture builds a small cluster and the set of all docIDs.
func fetchFixture(t testing.TB, shards int) (*corpus.Corpus, *Cluster) {
	t.Helper()
	c := corpus.Generate(corpus.CCNewsLike(0.004))
	return c, mustCluster(t, DefaultConfig(), c, shards)
}

// expectedDoc recomputes the synthetic payload for a global docID.
func expectedDoc(c *corpus.Corpus, id uint32) (name, text []byte) {
	name = corpus.DocName(nil, id)
	text = corpus.DocText(c.Spec.Seed, id, c.DocLens[id], c.Spec.NumTerms, nil)
	return
}

// TestFetchPathAllocs pins what a warm fetch by id costs SearchBatchQueries
// at 4 shards through a reused BatchResult: what it hands off, Docs and the
// answer's arena — one slab for every field's bytes and one for the field
// headers — 3 however many documents it holds (1 + 2n until the arena). The
// routing, the shard outcomes, their metrics, the document buffers and the
// payload scratch come from the request's record, the result and its
// PerShard from the BatchResult (until it was reused, they and the batch
// cost 10 more).
func TestFetchPathAllocs(t *testing.T) {
	skipUnderRace(t)
	c, cl := fetchFixture(t, 4)
	n := uint32(c.Spec.NumDocs)
	ids := []uint32{0, n - 1, n / 2, 1, n/2 + 1, n / 3, 7, n / 4, 3 * n / 4, n - 2}
	var br BatchResult
	for _, docs := range []int{1, len(ids)} {
		qs := []BatchQuery{{FetchIDs: ids[:docs]}}
		run := func() {
			if cl.SearchBatchQueries(context.Background(), qs, &br); br.Err != nil {
				t.Fatal(br.Err)
			}
		}
		run() // build the stores, warm the cache and the records
		if got, want := testing.AllocsPerRun(100, run), 3; got != float64(want) {
			t.Errorf("a warm fetch of %d documents allocates %.2f, want %d", docs, got, want)
		}
	}
}

// TestFetchArenaIsolation: a fetch's documents share one arena per answer,
// and no document can reach another's bytes or the record the arena was
// copied from. With every released record poisoned (poisonRecord), on a
// 4-shard cluster through one reused BatchResult: appending to any returned
// field leaves every field of every document equal to the store's; with one
// shard dead, its documents are zero-valued and the rest intact, though its
// scratch still holds the last batch's payloads; and the documents of every
// batch stay equal to the store's after the later batches reuse the
// BatchResult and the records.
func TestFetchArenaIsolation(t *testing.T) {
	c, cl := fetchFixture(t, 4)
	cl.poison = poisonRecord
	n := uint32(c.Spec.NumDocs)
	ids := []uint32{0, n - 1, n / 2, 1, n/2 + 1, n / 3, 7, n / 4, 3 * n / 4, n - 2}
	intact := func(what string, docs []FetchedDoc, ids []uint32, dead int) {
		t.Helper()
		if len(docs) != len(ids) {
			t.Fatalf("%s: %d documents for %d ids", what, len(docs), len(ids))
		}
		for i, id := range ids {
			d := docs[i]
			if cl.shardOfDoc(id) == dead {
				if d.DocID != 0 || d.Fields != nil {
					t.Fatalf("%s: document %d of the dead shard is not zero-valued: %+v", what, id, d)
				}
				continue
			}
			name, text := expectedDoc(c, id)
			if d.DocID != id || len(d.Fields) != 2 || !bytes.Equal(d.Fields[0], name) || !bytes.Equal(d.Fields[1], text) {
				t.Fatalf("%s: document %d differs from the store's", what, id)
			}
		}
	}
	var br BatchResult
	fetch := func(ids []uint32) *ClusterResult {
		t.Helper()
		if cl.SearchBatchQueries(context.Background(), []BatchQuery{{FetchIDs: ids}}, &br); br.Err != nil {
			t.Fatal(br.Err)
		}
		return &br.Results[0]
	}

	first := fetch(ids).Docs
	intact("fetched", first, ids, -1)
	for i := range first {
		for fi := range first[i].Fields {
			_ = append(first[i].Fields[fi], "appended past the field"...)
			intact(fmt.Sprintf("after an append to document %d field %d", first[i].DocID, fi), first, ids, -1)
		}
	}

	cl.SetFaultPlan(&mem.FaultPlan{Seed: 1, DeadDevices: []int{1}})
	res := fetch(ids)
	if res.Degraded != 1<<1 {
		t.Fatalf("Degraded = %b, want shard 1", res.Degraded)
	}
	degraded := res.Docs
	intact("one shard dead", degraded, ids, 1)

	cl.SetFaultPlan(nil)
	again := []uint32{n - 3, 2, n/2 + 2, 5, n / 5}
	intact("the next batch", fetch(again).Docs, again, -1)
	intact("the first batch, after two more", first, ids, -1)
	intact("the degraded batch, after one more", degraded, ids, 1)
}

func TestFetchBatchRoundTrip(t *testing.T) {
	c, cl := fetchFixture(t, 4)
	n := uint32(c.Spec.NumDocs)
	ids := []uint32{0, n - 1, n / 2, 1, n/2 + 1, n / 3, 0} // duplicates allowed
	res, err := cl.FetchBatch(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != 0 {
		t.Fatalf("pristine fetch degraded: %b", res.Degraded)
	}
	if len(res.Docs) != len(ids) {
		t.Fatalf("got %d docs for %d ids", len(res.Docs), len(ids))
	}
	for i, id := range ids {
		d := res.Docs[i]
		if d.DocID != id || len(d.Fields) != 2 {
			t.Fatalf("doc %d: %+v", i, d)
		}
		name, text := expectedDoc(c, id)
		if !bytes.Equal(d.Fields[0], name) || !bytes.Equal(d.Fields[1], text) {
			t.Fatalf("doc %d (id %d): payload mismatch", i, id)
		}
	}
	if res.LinkBytes == 0 {
		t.Fatal("fetched payloads recorded no link traffic")
	}
	var charged bool
	for _, m := range res.PerShard {
		if m != nil && m.DocsFetched > 0 && m.Cat[mem.CatLoadDoc] > 0 {
			charged = true
		}
	}
	if !charged {
		t.Fatal("no shard charged CatLoadDoc traffic")
	}
	// Out-of-range id fails the call, typed as an input error.
	if _, err := cl.FetchBatch(context.Background(), []uint32{n}); err == nil {
		t.Fatal("out-of-range fetch succeeded")
	}
}

// TestFetchShardingIndependent: payload bytes must not depend on the
// shard layout — 1-shard and 5-shard clusters serve identical documents.
func TestFetchShardingIndependent(t *testing.T) {
	c := corpus.Generate(corpus.CCNewsLike(0.004))
	a := mustCluster(t, DefaultConfig(), c, 1)
	b := mustCluster(t, DefaultConfig(), c, 5)
	ids := make([]uint32, 0, 64)
	for id := uint32(0); int(id) < c.Spec.NumDocs; id += uint32(c.Spec.NumDocs/64 + 1) {
		ids = append(ids, id)
	}
	ra, err := a.FetchBatch(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.FetchBatch(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		for f := range ra.Docs[i].Fields {
			if !bytes.Equal(ra.Docs[i].Fields[f], rb.Docs[i].Fields[f]) {
				t.Fatalf("doc %d field %d differs across shard layouts", ids[i], f)
			}
		}
	}
}

func TestSearchFetch(t *testing.T) {
	c, cl := fetchFixture(t, 3)
	q := corpus.SampleQueries(c, corpus.Q2, 1, 7)[0]
	res, err := cl.SearchFetchCtx(context.Background(), q.Expr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) == 0 {
		t.Skip("query matched nothing")
	}
	if len(res.Docs) != len(res.TopK) {
		t.Fatalf("%d docs for %d hits", len(res.Docs), len(res.TopK))
	}
	for i, e := range res.TopK {
		if res.Docs[i].DocID != e.DocID {
			t.Fatalf("doc %d fetched id %d, hit id %d", i, res.Docs[i].DocID, e.DocID)
		}
		name, text := expectedDoc(c, e.DocID)
		if !bytes.Equal(res.Docs[i].Fields[0], name) || !bytes.Equal(res.Docs[i].Fields[1], text) {
			t.Fatalf("hit %d payload mismatch", i)
		}
	}
	// The ranking must be untouched by the fetch phase.
	plain, err := cl.SearchCtx(context.Background(), q.Expr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.Same(res.TopK, plain.TopK); err != nil {
		t.Fatalf("fetch phase perturbed the ranking: %v", err)
	}
}

func TestSearchFetchBatch(t *testing.T) {
	c, cl := fetchFixture(t, 3)
	qs := corpus.SampleQueries(c, corpus.Q2, 6, 11)
	batch := make([]BatchQuery, len(qs))
	for i, q := range qs {
		batch[i] = BatchQuery{Expr: q.Expr, K: 10, WithDocs: true}
	}
	br := runBatch(context.Background(), cl, batch)
	if br.Err != nil {
		t.Fatal(br.Err)
	}
	for qi, res := range br.Results {
		if len(res.Docs) != len(res.TopK) {
			t.Fatalf("query %d: %d docs for %d hits", qi, len(res.Docs), len(res.TopK))
		}
		for i, e := range res.TopK {
			if res.Docs[i].DocID != e.DocID {
				t.Fatalf("query %d doc %d mismatch", qi, i)
			}
		}
	}
}

// TestFetchBatchQueries: document fetches ride the heterogeneous batch
// surface the front door flushes into.
func TestFetchBatchQueries(t *testing.T) {
	c, cl := fetchFixture(t, 2)
	q := corpus.SampleQueries(c, corpus.Q1, 1, 3)[0]
	br := runBatch(context.Background(), cl, []BatchQuery{
		{Expr: q.Expr, K: 5},
		{FetchIDs: []uint32{1, 2, 3}},
		{Expr: q.Expr, FetchIDs: []uint32{1}}, // invalid: both
	})
	if br.Errs[0] != nil || br.Errs[1] != nil {
		t.Fatalf("errs: %v %v", br.Errs[0], br.Errs[1])
	}
	if len(br.Results[1].Docs) != 3 || br.Results[1].Docs[2].DocID != 3 {
		t.Fatalf("fetch query result: %+v", br.Results[1].Docs)
	}
	if !errors.Is(br.Errs[2], errExprAndFetch) {
		t.Fatalf("mixed query error = %v", br.Errs[2])
	}
	// A shard mask sheds masked shards' fetches without engaging breakers.
	masked := runBatch(context.Background(), cl, []BatchQuery{
		{FetchIDs: []uint32{0, uint32(c.Spec.NumDocs - 1)}, ShardMask: 1},
	})
	if masked.Errs[0] != nil {
		t.Fatal(masked.Errs[0])
	}
	r := &masked.Results[0]
	if r.Degraded&2 == 0 {
		t.Fatalf("masked shard not degraded: %b", r.Degraded)
	}
	if !errors.Is(r.ShardErrs[1], ErrShardShed) {
		t.Fatalf("masked shard err = %v", r.ShardErrs[1])
	}
	if r.Docs[0].DocID != 0 || len(r.Docs[0].Fields) == 0 {
		t.Fatalf("unmasked doc missing: %+v", r.Docs[0])
	}
	if len(r.Docs[1].Fields) != 0 {
		t.Fatal("masked shard still served its document")
	}
}

// TestFetchDegraded: a dead shard's documents degrade instead of failing
// the batch; a fully dead cluster fails.
func TestFetchDegraded(t *testing.T) {
	c, cl := fetchFixture(t, 2)
	cl.SetFaultPlan(&mem.FaultPlan{Seed: 1, DeadDevices: []int{1}})
	ids := []uint32{0, uint32(c.Spec.NumDocs - 1)}
	res, err := cl.FetchBatch(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != 2 {
		t.Fatalf("Degraded = %b, want shard 1", res.Degraded)
	}
	if !errors.Is(res.ShardErrs[1], mem.ErrDeviceDown) {
		t.Fatalf("shard err = %v", res.ShardErrs[1])
	}
	if len(res.Docs[0].Fields) == 0 || len(res.Docs[1].Fields) != 0 {
		t.Fatalf("degraded docs wrong: %+v", res.Docs)
	}
	// Both shards dead: the batch itself errors.
	cl.SetFaultPlan(&mem.FaultPlan{Seed: 1, DeadDevices: []int{0, 1}})
	if _, err := cl.FetchBatch(context.Background(), ids); !errors.Is(err, mem.ErrDeviceDown) {
		t.Fatalf("all-dead fetch err = %v", err)
	}
	// Restoring the plan restores service.
	cl.SetFaultPlan(nil)
	if res, err := cl.FetchBatch(context.Background(), ids); err != nil || res.Degraded != 0 {
		t.Fatalf("restored fetch: res=%+v err=%v", res, err)
	}
}

// TestFetchChargesCacheIndependent: the cluster replay invariant for the
// fetch phase — per-shard simulated charges are identical with and
// without the host-side cache.
func TestFetchChargesCacheIndependent(t *testing.T) {
	c := corpus.Generate(corpus.CCNewsLike(0.004))
	ids := make([]uint32, 0, 300)
	for i := 0; i < 300; i++ {
		ids = append(ids, uint32(i*7%c.Spec.NumDocs))
	}
	run := func(cacheBytes int64) *ClusterResult {
		cfg := DefaultConfig()
		cfg.CacheBytes = cacheBytes
		cl := mustCluster(t, cfg, c, 3)
		res, err := cl.FetchBatch(context.Background(), ids)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(0)
	cached := run(64 << 20)
	for si := range plain.PerShard {
		a, b := plain.PerShard[si], cached.PerShard[si]
		if (a == nil) != (b == nil) {
			t.Fatalf("shard %d metrics presence differs", si)
		}
		if a != nil && *a != *b {
			t.Fatalf("shard %d charges diverge with cache:\nplain:  %+v\ncached: %+v", si, a, b)
		}
	}
	if plain.LinkBytes != cached.LinkBytes {
		t.Fatalf("link traffic diverges: %d vs %d", plain.LinkBytes, cached.LinkBytes)
	}
}

func TestFetchCancelled(t *testing.T) {
	_, cl := fetchFixture(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.FetchBatch(ctx, []uint32{0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// inflightClock is the wall clock with a probe on Now. A shard run reads it
// once as it starts (pickReplica's breaker check), and the read holds for a
// moment so that runs starting together overlap in it: peak is the most
// shard runs in flight at once, goroutines the most goroutines alive then.
type inflightClock struct {
	clock.Clock
	in, peak, goroutines atomic.Int64
}

func (p *inflightClock) Now() time.Time {
	raise(&p.peak, p.in.Add(1))
	raise(&p.goroutines, int64(runtime.NumGoroutine()))
	time.Sleep(100 * time.Microsecond)
	p.in.Add(-1)
	return p.Clock.Now()
}

// raise lifts v to n when n is larger.
func raise(v *atomic.Int64, n int64) {
	for old := v.Load(); n > old && !v.CompareAndSwap(old, n); old = v.Load() {
	}
}

// TestBatchFetchSweepsSerially: a batch worker owns one in-flight query
// and sweeps it across the shards itself, so fetches — and the fetch phase
// of WithDocs searches — inside a batch must not fan out across the shards
// on their own: at most W shard runs in flight, not up to W×W. The batch's
// workers are the caller and parked helpers, so it starts no goroutine.
func TestBatchFetchSweepsSerially(t *testing.T) {
	const workers = 4
	c := corpus.Generate(corpus.CCNewsLike(0.004))
	probe := &inflightClock{Clock: clock.Wall()}
	cfg := DefaultConfig()
	cfg.Workers = workers
	cfg.Clock = probe
	cl := mustCluster(t, cfg, c, 4)
	if err := cl.EnsureDocs(); err != nil {
		t.Fatal(err)
	}
	n := uint32(c.Spec.NumDocs)
	everyShard := []uint32{0, n / 3, 2 * n / 3, n - 1, 1, n/3 + 1, 2*n/3 + 1, n - 2}
	expr := corpus.SampleQueries(c, corpus.Q1, 1, 3)[0].Expr
	var batch []BatchQuery
	for i := 0; i < 32; i++ {
		batch = append(batch, BatchQuery{FetchIDs: everyShard}, BatchQuery{Expr: expr, K: 10, WithDocs: true})
	}
	parkHelpers(workers)
	before := runtime.NumGoroutine()
	if br := runBatch(context.Background(), cl, batch); br.Err != nil {
		t.Fatal(br.Err)
	}
	if got := probe.peak.Load(); got == 0 || got > workers {
		t.Fatalf("peak %d shard runs in flight during the batch, want at most %d (one per batch worker)", got, workers)
	}
	if got := probe.goroutines.Load(); got > int64(before) {
		t.Fatalf("peak %d goroutines during the batch, want at most the %d before it: its workers are the caller and parked helpers", got, before)
	}
}
