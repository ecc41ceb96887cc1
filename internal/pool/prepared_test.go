package pool

import (
	"context"
	"fmt"
	"reflect"
	"runtime/debug"
	"sync"
	"testing"

	"boss/internal/query"
)

// TestPreparedIsSharedNotWritten: one *query.Prepared — what the front door's
// key cache hands every flight of an expression — executed concurrently at
// different depths, shard masks and fan-out widths, on a cluster where some
// shards lack some of its terms (so their runs narrow the normal form),
// answers as the expression itself does and comes out as it went in. Run
// under -race: a narrowing that wrote through the shared slices would be a
// data race between shard runs.
func TestPreparedIsSharedNotWritten(t *testing.T) {
	c, _, cl := clusterFixture(t, 5)
	// The commonest term that some shard lacks: the others run the query whole.
	var partial string
	for i := 0; i < len(c.Terms) && partial == ""; i++ {
		for _, idx := range cl.shards {
			if !holds(idx, c.Terms[i].Term) {
				partial = c.Terms[i].Term
			}
		}
	}
	if partial == "" {
		t.Fatal("corpus too small: every shard holds every term")
	}
	expr := fmt.Sprintf(`(%q AND %q) OR %q OR (%q AND %q)`, c.Terms[0].Term, partial, partial, c.Terms[1].Term, c.Terms[2].Term)
	p, err := query.Prepare(expr)
	if err != nil {
		t.Fatal(err)
	}
	narrowed := 0
	for _, idx := range cl.shards {
		if pl, _ := narrow(p.Plan, idx); len(pl.DNF) < len(p.DNF) {
			narrowed++
		}
	}
	if narrowed == 0 || narrowed == len(cl.shards) {
		t.Fatalf("%d of %d shards narrow %s; want some and not all", narrowed, len(cl.shards), expr)
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 10; g++ {
		q := BatchQuery{Expr: expr, Prepared: p, K: 1 + 7*g, ShardMask: []uint64{0, 0b10111, 0b01101, 0b11010}[g%4]}
		width := 1 + g%3*2 // the shards one at a time, or on 3 or 5 workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			bare := q
			bare.Prepared = nil
			want, err := cl.exec(ctx, bare, 1)
			if err != nil {
				t.Errorf("k=%d mask=%b unprepared: %v", q.K, q.ShardMask, err)
				return
			}
			for i := 0; i < 20; i++ {
				got, err := cl.exec(ctx, q, width)
				if err != nil {
					t.Errorf("k=%d mask=%b: %v", q.K, q.ShardMask, err)
					return
				}
				if !reflect.DeepEqual(got.TopK, want.TopK) || got.Degraded != want.Degraded {
					t.Errorf("k=%d mask=%b width=%d: the prepared query answers differently from its expression", q.K, q.ShardMask, width)
					return
				}
			}
		}()
	}
	wg.Wait()
	if fresh, _ := query.Prepare(expr); !reflect.DeepEqual(p, fresh) {
		t.Fatalf("executing the prepared query changed it:\n got %+v\nwant %+v", p, fresh)
	}
}

// clusterPathAllocs is what one warm, prepared 2-term conjunction at k = 10
// costs SearchBatchQueries at 4 shards: the pool's own per-query constant,
// with no preparation in it. By allocation site: 7 are the batch's (its
// result, two slices and worker closure; ForEach's channel, closure and
// goroutine) and 4 the query's, all of which it returns — the result, its
// PerShard and the metrics records PerShard points into, and the TopK, each
// allocated once at its final size. Everything else the query touches comes
// from its recycled record (queryRec): the shard outcomes, each shard's
// metrics, narrowed plan and top-k slab region, and the core runs' records.
// Until that record existed the query cost 21 (the sweep's outcomes, the
// merge heap's growths, copy and sort, and per shard a Metrics and a top-k
// copy). Unprepared, the same call allocated 49 before Prepare existed — the
// expression was parsed (7), flattened (2), normalised (9) and pruned per
// shard (4) on every execution — and costs this plus one Prepare now.
const clusterPathAllocs = 11

// skipUnderRace skips an allocation pin in a -race build, which instruments
// allocations and randomizes sync.Pool reuse.
func skipUnderRace(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("-race instruments allocations and randomizes sync.Pool reuse")
			}
		}
	}
}

func TestClusterPathAllocs(t *testing.T) {
	skipUnderRace(t)
	c, _, cl := clusterFixture(t, 4)
	expr := fmt.Sprintf(`%q AND %q`, c.Terms[0].Term, c.Terms[1].Term)
	p, err := query.Prepare(expr)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(q BatchQuery) float64 {
		qs := []BatchQuery{q}
		run := func() {
			if br := cl.SearchBatchQueries(context.Background(), qs); br.Err != nil || len(br.Results[0].TopK) == 0 {
				t.Fatalf("%+v: %v", q, br.Err)
			}
		}
		run() // warm the cache, the run records and their scratch
		return testing.AllocsPerRun(200, run)
	}
	prepared := measure(BatchQuery{Expr: expr, Prepared: p, K: 10})
	if prepared > clusterPathAllocs {
		t.Errorf("a warm prepared query allocates %.2f, want at most %d", prepared, clusterPathAllocs)
	}
	if bare := measure(BatchQuery{Expr: expr, K: 10}); bare <= prepared {
		t.Errorf("preparing inside exec is free (%.2f against %.2f carried): the carried query is not what ran", bare, prepared)
	} else {
		t.Logf("prepared %.2f, unprepared %.2f allocs per warm query", prepared, bare)
	}
}
