package boss_test

import (
	"context"
	"errors"
	"math/bits"
	"reflect"
	"testing"
	"time"

	"boss"
)

// TestServeShedAndDegrade exercises the facade's admission ladder: past
// the queue watermark an admission degrades to a partial-node answer, and
// at capacity a request is refused with ErrOverloaded — on a sharded
// deployment; a single device has no node to leave out, so it serves the
// degraded admission in full.
func TestServeShedAndDegrade(t *testing.T) {
	// The first flight fills the queue to the 0.5 × 2 watermark, the
	// second degrades and fills it, and the third is refused.
	cfg := boss.FrontConfig{
		BatchTarget:      8,
		MaxQueue:         2,
		Timeout:          100 * time.Millisecond,
		DegradeWatermark: 0.5,
	}
	sh, err := boss.Shard(boss.ClueWebLike, 0.01, 4)
	if err != nil {
		t.Fatalf("Shard: %v", err)
	}
	srv, err := sh.Serve(cfg)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	full, err := srv.Submit(boss.ServeRequest{Expr: `"t1"`, K: 20})
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	part, err := srv.Submit(boss.ServeRequest{Expr: `"t3"`, K: 20})
	if err != nil {
		t.Fatalf("past-watermark submit: %v", err)
	}
	if _, err := srv.Submit(boss.ServeRequest{Expr: `"t2"`, K: 20}); !errors.Is(err, boss.ErrOverloaded) {
		t.Fatalf("submit at capacity: err = %v, want ErrOverloaded", err)
	}
	srv.Flush()
	fr, err := full.Wait(context.Background())
	if err != nil || fr.Degraded != 0 {
		t.Fatalf("pre-watermark request: err=%v degraded=%04b", err, fr.Degraded)
	}
	pr, err := part.Wait(context.Background())
	if err != nil {
		t.Fatalf("degraded request: %v", err)
	}
	if pr.Degraded == 0 {
		t.Fatal("past-watermark request was not degraded")
	}
	if bits.OnesCount64(pr.Degraded) != 2 {
		t.Fatalf("degraded node count = %d, want 2 (half of 4)", bits.OnesCount64(pr.Degraded))
	}
	if len(pr.Hits) == 0 {
		t.Fatal("degraded request returned no partial answer")
	}
	st := srv.Stats()
	if st.Rejected != 1 || st.Degraded != 1 || st.Shed != 0 {
		t.Fatalf("stats = %+v, want 1 rejected, 1 degraded and 0 shed", st)
	}

	t.Run("single device", func(t *testing.T) {
		acc := boss.BuildSynthetic(boss.ClueWebLike, 0.01).Accelerator(boss.AccelOptions{})
		one, err := acc.Serve(cfg)
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
		defer one.Close()
		if _, err := one.Submit(boss.ServeRequest{Expr: `"t1"`, K: 20}); err != nil {
			t.Fatalf("first submit: %v", err)
		}
		over, err := one.Submit(boss.ServeRequest{Expr: `"t3"`, K: 20})
		if err != nil {
			t.Fatalf("past-watermark submit: %v", err)
		}
		if _, err := one.Submit(boss.ServeRequest{Expr: `"t2"`, K: 20}); !errors.Is(err, boss.ErrOverloaded) {
			t.Fatalf("submit at capacity: err = %v, want ErrOverloaded", err)
		}
		one.Flush()
		got, err := over.Wait(context.Background())
		if err != nil {
			t.Fatalf("past-watermark request: %v", err)
		}
		want, _, err := acc.Search(`"t3"`, 20)
		if err != nil {
			t.Fatal(err)
		}
		if got.Degraded != 0 || len(want) == 0 || !reflect.DeepEqual(got.Hits, want) {
			t.Fatalf("past-watermark request: degraded=%b hits %v, want Search's %v in full", got.Degraded, got.Hits, want)
		}
		if st := one.Stats(); st.Rejected != 1 || st.Degraded != 0 {
			t.Fatalf("stats = %+v, want 1 rejected and 0 degraded", st)
		}
	})
}

// TestServeTicketCancel verifies a cancelled facade ticket reports an
// error and the server keeps serving others.
func TestServeTicketCancel(t *testing.T) {
	sh, err := boss.Shard(boss.ClueWebLike, 0.01, 2)
	if err != nil {
		t.Fatalf("Shard: %v", err)
	}
	srv, err := sh.Serve(boss.FrontConfig{BatchTarget: 8, Timeout: time.Hour})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	tk, err := srv.Submit(boss.ServeRequest{Expr: `"t1"`, K: 10})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := tk.Cancel(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Cancel: err = %v, want context.Canceled", err)
	}
	res, err := srv.Search(context.Background(), boss.ServeRequest{Expr: `"t1"`, K: 10, Deadline: time.Now().Add(50 * time.Millisecond)})
	if err != nil {
		t.Fatalf("Search after cancel: %v", err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("Search after cancel returned no hits")
	}
}

// TestServeFetchSharded: document fetches ride the serving tier over a
// sharded deployment — coalescing, batching, and the payloads themselves
// match the direct fetch path.
func TestServeFetchSharded(t *testing.T) {
	sh, err := boss.Shard(boss.CCNewsLike, 0.004, 3)
	if err != nil {
		t.Fatalf("Shard: %v", err)
	}
	srv, err := sh.Serve(boss.FrontConfig{BatchTarget: 8, Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	ids := []uint32{0, 5, 1000}
	t1, err := srv.Submit(boss.ServeRequest{FetchIDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := srv.Submit(boss.ServeRequest{FetchIDs: ids}) // coalesces
	if err != nil {
		t.Fatal(err)
	}
	srv.Flush()
	got, err := t1.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dup, err := t2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !dup.DedupHit {
		t.Fatal("identical concurrent fetch did not coalesce")
	}
	want, err := sh.FetchDocsCtx(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Docs) != len(ids) {
		t.Fatalf("served %d docs for %d ids", len(got.Docs), len(ids))
	}
	for i := range ids {
		if got.Docs[i] != want.Docs[i] {
			t.Fatalf("doc %d: served %+v, direct %+v", i, got.Docs[i], want.Docs[i])
		}
		if dup.Docs[i] != want.Docs[i] {
			t.Fatalf("doc %d: coalesced waiter diverges", i)
		}
	}
	st := srv.Stats()
	if st.Fetches != 2 || st.DedupHits != 1 {
		t.Fatalf("stats = %+v, want 2 fetches / 1 dedup", st)
	}
	// Mixed requests are rejected before admission.
	if _, err := srv.Submit(boss.ServeRequest{Expr: `"t1"`, FetchIDs: ids}); err == nil {
		t.Fatal("mixed search+fetch request admitted")
	}
}

// TestServeFetchAccelerator: the single-device serving tier serves
// fetches through the same lazily-wired engine FetchDocsCtx uses.
func TestServeFetchAccelerator(t *testing.T) {
	b := boss.NewBuilder()
	b.Add("alpha", "the quick brown fox")
	b.Add("beta", "jumps over the lazy dog")
	acc := b.Build().Accelerator(boss.AccelOptions{})
	srv, err := acc.Serve(boss.FrontConfig{Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	tk, err := srv.Submit(boss.ServeRequest{FetchIDs: []uint32{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	srv.Flush()
	res, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) != 2 || res.Docs[0].Name != "beta" || res.Docs[1].Text != "the quick brown fox" {
		t.Fatalf("served docs = %+v", res.Docs)
	}
	// A search through the same server still works alongside fetches.
	sr, err := srv.Search(context.Background(), boss.ServeRequest{Expr: `"quick"`, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Hits) != 1 || sr.Hits[0].Doc != "alpha" {
		t.Fatalf("search hits = %+v", sr.Hits)
	}
	// Out-of-range ids surface the engine's typed failure.
	bad, err := srv.Submit(boss.ServeRequest{FetchIDs: []uint32{99}})
	if err != nil {
		t.Fatal(err)
	}
	srv.Flush()
	if _, err := bad.Wait(context.Background()); err == nil {
		t.Fatal("out-of-range served fetch succeeded")
	}
}

// TestServeSparseRepeatedTermIsASet: a SPARSE query is the set of terms
// its coalescing key names. A repeated term used to be scored once per
// occurrence while the front door keyed on the deduplicated set, so
// SPARSE("fox","dog","dog","dog","dog") ranked d1 first when served alone
// and came back with SPARSE("fox","dog")'s answer (d0 first) when the two
// shared a batch. Both spellings must return the same hits, alone, through
// the accelerator's Search, and coalesced.
func TestServeSparseRepeatedTermIsASet(t *testing.T) {
	b := boss.NewBuilder()
	b.EnableImpacts()
	b.Add("d0", "fox fox fox fox cat")
	b.Add("d1", "dog dog cat cat cat cat")
	b.Add("d2", "cat bird bird")
	b.Add("d3", "bird bird bird cat")
	acc := b.Build().Accelerator(boss.AccelOptions{})
	srv, err := acc.Serve(boss.FrontConfig{Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	const (
		set      = `SPARSE("fox", "dog")`
		repeated = `SPARSE("fox", "dog", "dog", "dog", "dog")`
		k        = 4
	)
	want, _, err := acc.Search(set, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 || want[0].Doc != "d0" || want[1].Doc != "d1" {
		t.Fatalf("Search(%s) = %+v, want d0 then d1", set, want)
	}
	same := func(what string, got []boss.Hit) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d hits %+v, want %+v", what, len(got), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: hit %d = %+v, want %+v", what, i, got[i], want[i])
			}
		}
	}
	direct, _, err := acc.Search(repeated, k)
	if err != nil {
		t.Fatal(err)
	}
	same("Accelerator.Search(repeated)", direct)

	// Alone: each expression is the only request of its batch.
	for _, e := range []string{set, repeated} {
		res, err := srv.Search(context.Background(), boss.ServeRequest{Expr: e, K: k})
		if err != nil {
			t.Fatalf("Search(%s): %v", e, err)
		}
		same("served alone "+e, res.Hits)
	}

	// Coalesced: both in one batch, either order; the second rides the
	// first's execution.
	for _, order := range [][]string{{set, repeated}, {repeated, set}} {
		before := srv.Stats().DedupHits
		var tks []*boss.ServeTicket
		for _, e := range order {
			tk, err := srv.Submit(boss.ServeRequest{Expr: e, K: k})
			if err != nil {
				t.Fatalf("Submit(%s): %v", e, err)
			}
			tks = append(tks, tk)
		}
		srv.Flush()
		for i, tk := range tks {
			res, err := tk.Wait(context.Background())
			if err != nil {
				t.Fatalf("Wait(%s): %v", order[i], err)
			}
			same("served in one batch "+order[i], res.Hits)
		}
		if got := srv.Stats().DedupHits - before; got != 1 {
			t.Fatalf("batch %v: %d dedup hits, want 1 (same canonical key)", order, got)
		}
	}
}
