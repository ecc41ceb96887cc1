package boss

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"boss/internal/compress"
	"boss/internal/corpus"
	"boss/internal/engine"
	"boss/internal/iiu"
	"boss/internal/index"
	"boss/internal/pool"
	"boss/internal/query"
	"boss/internal/topk"
)

// sampleIndex builds a small hand-written document collection.
func sampleIndex(t testing.TB) *Index {
	t.Helper()
	b := NewBuilder()
	b.Add("pets", "the quick brown fox jumps over the lazy dog")
	b.Add("news", "storage class memory changes the economics of search")
	b.Add("paper", "a bandwidth optimized search accelerator for storage class memory")
	b.Add("misc", "the dog days of summer bring lazy afternoons")
	b.Add("tech", "near data processing accelerators filter memory traffic")
	return b.Build()
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Hello, World! 42 foo-bar")
	want := []string{"hello", "world", "42", "foo", "bar"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	if len(Tokenize("")) != 0 {
		t.Fatal("empty text should produce no tokens")
	}
}

func TestBuildAndSearch(t *testing.T) {
	ix := sampleIndex(t)
	if ix.NumDocs() != 5 {
		t.Fatalf("NumDocs = %d", ix.NumDocs())
	}
	if !ix.HasTerm("memory") || ix.HasTerm("nonexistent") {
		t.Fatal("HasTerm wrong")
	}

	hits, err := ix.Search(`"lazy"`, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("'lazy' hits = %v", hits)
	}
	names := map[string]bool{hits[0].Doc: true, hits[1].Doc: true}
	if !names["pets"] || !names["misc"] {
		t.Fatalf("'lazy' should hit pets and misc: %v", hits)
	}
}

func TestSearchBooleanOperators(t *testing.T) {
	ix := sampleIndex(t)
	// AND: both terms must appear.
	hits, err := ix.Search(`"storage" AND "search"`, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if h.Doc != "news" && h.Doc != "paper" {
			t.Fatalf("unexpected AND hit %v", h)
		}
	}
	if len(hits) != 2 {
		t.Fatalf("AND hits = %v", hits)
	}
	// Mixed query.
	hits, err = ix.Search(`"memory" AND ("accelerator" OR "economics")`, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("mixed hits = %v", hits)
	}
}

func TestSearchErrors(t *testing.T) {
	ix := sampleIndex(t)
	if _, err := ix.Search(`not quoted`, 5); err == nil {
		t.Fatal("malformed expression should error")
	}
	if _, err := ix.Search(`"absentterm"`, 5); err == nil {
		t.Fatal("unknown term should error")
	}
}

// TestAcceleratorTermLimit: the accelerator facade prepares a query as its
// Server does, so an expression of 17 term occurrences fails Search,
// SearchFetchCtx and SearchBatch with the *query.TermLimitError Submit refuses
// it with, before anything runs.
func TestAcceleratorTermLimit(t *testing.T) {
	acc := sampleIndex(t).Accelerator(AccelOptions{})
	expr := `"dog"` + strings.Repeat(` AND "dog"`, query.MaxTerms)
	srv, err := acc.Serve(FrontConfig{BatchTarget: 1, Timeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, submitErr := srv.Submit(ServeRequest{Expr: expr, K: 5})
	_, _, searchErr := acc.Search(expr, 5)
	_, fetchErr := acc.SearchFetchCtx(context.Background(), expr, 5)
	batch := acc.SearchBatch([]string{`"dog"`, expr}, 5)
	for name, err := range map[string]error{"Server.Submit": submitErr, "Search": searchErr, "SearchFetchCtx": fetchErr, "SearchBatch": batch[1].Err} {
		var lim *query.TermLimitError
		if !errors.As(err, &lim) || lim.Terms != query.MaxTerms+1 {
			t.Errorf("%s(%d terms) = %v; want a *query.TermLimitError naming the count", name, query.MaxTerms+1, err)
		}
	}
	if batch[0].Err != nil || len(batch[0].Hits) == 0 {
		t.Errorf("SearchBatch's in-limit neighbour = %+v; want hits", batch[0])
	}
}

// TestSearchBatchMatchesSearch: on every deployment each SearchBatch item is
// what Search returns for its query — hits, *SimStats and error — over a
// mixed batch of Q1–Q6, SPARSE where the deployment serves it, and an
// unknown term and a 17-term expression in the middle, whose failures leave
// their neighbours' answers alone. The batch runs on GOMAXPROCS workers, so
// CI runs this at -cpu 1,2,8 for the one-worker, exact and oversubscribed
// widths.
func TestSearchBatchMatchesSearch(t *testing.T) {
	const k = 20
	c := corpus.Generate(corpus.CCNewsLike(0.004))
	var exprs []string
	for _, qt := range corpus.AllQueryTypes() {
		for _, q := range corpus.SampleQueries(c, qt, 3, 7) {
			exprs = append(exprs, q.Expr)
		}
	}
	mid := len(exprs) / 2
	exprs = slices.Insert(exprs, mid, `"nosuchtermzz"`, `"t0"`+strings.Repeat(` AND "t0"`, query.MaxTerms))
	withSparse := append([]string{`SPARSE("t1", "t5", "t20")`}, exprs...)

	// The single-device deployments run over an impact index, which serves
	// SPARSE; the cluster builds its shards without impacts (ROADMAP 3).
	ix := &Index{idx: index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid, Impacts: true})}
	acc := ix.Accelerator(AccelOptions{})
	sx, err := Shard(CCNewsLike, 0.004, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct {
		name   string
		exprs  []string
		search func(expr string) ([]Hit, *SimStats, error)
		batch  func(exprs []string) []BatchItem
	}{
		{"Index", withSparse, func(e string) ([]Hit, *SimStats, error) {
			hits, err := ix.Search(e, k)
			return hits, nil, err
		}, func(es []string) []BatchItem { return ix.SearchBatch(es, k) }},
		{"Accelerator", withSparse, func(e string) ([]Hit, *SimStats, error) { return acc.Search(e, k) },
			func(es []string) []BatchItem { return acc.SearchBatch(es, k) }},
		{"ShardedIndex", exprs, func(e string) ([]Hit, *SimStats, error) { return sx.Search(e, k) },
			func(es []string) []BatchItem { return sx.SearchBatch(es, k) }},
	} {
		t.Run(d.name, func(t *testing.T) {
			items := d.batch(d.exprs)
			if len(items) != len(d.exprs) {
				t.Fatalf("%d items for %d queries", len(items), len(d.exprs))
			}
			for i, expr := range d.exprs {
				hits, stats, err := d.search(expr)
				got := items[i]
				if !reflect.DeepEqual(got.Hits, hits) || !reflect.DeepEqual(got.Stats, stats) ||
					fmt.Sprint(got.Err) != fmt.Sprint(err) || got.Degraded != 0 {
					t.Errorf("item %d (%s) = %+v\nwant Search's hits=%v stats=%+v err=%v", i, expr, got, hits, stats, err)
				}
			}
			// The unknown term is at off, the 17-term expression at off+1.
			off := len(d.exprs) - len(exprs) + mid
			if items[off].Err == nil {
				t.Errorf("unknown term: no error")
			}
			for i, it := range items {
				if i != off && i != off+1 && it.Err != nil {
					t.Errorf("item %d (%s) beside the failing pair: %v", i, d.exprs[i], it.Err)
				}
			}
			if items := d.batch(nil); len(items) != 0 {
				t.Errorf("empty batch returned %d items", len(items))
			}
		})
	}
}

// TestAcceleratorCtx: the single-device handle's *Ctx forms are its Search
// and SearchBatch with a context and a ShardedResult. Search, SearchCtx,
// SearchBatch, SearchBatchCtx and SearchFetchCtx give one query the same
// hits; the Ctx forms report a complete answer (Degraded 0) and, on one
// copy, no ServedBy; a dead context fails SearchCtx and every item of
// SearchBatchCtx. CI runs this at -cpu 1,2,8.
func TestAcceleratorCtx(t *testing.T) {
	ix := BuildSynthetic(CCNewsLike, 0.004)
	acc := ix.Accelerator(AccelOptions{})
	ctx := context.Background()
	exprs := []string{`"t1"`, `"t2" AND "t3"`, `"t4" OR "t9"`, `"nosuchtermzz"`}
	batch, batchCtx := acc.SearchBatch(exprs, 10), acc.SearchBatchCtx(ctx, exprs, 10)
	for i, expr := range exprs {
		hits, stats, err := acc.Search(expr, 10)
		res, errCtx := acc.SearchCtx(ctx, expr, 10)
		if fmt.Sprint(err) != fmt.Sprint(errCtx) || !reflect.DeepEqual(batch[i], batchCtx[i]) {
			t.Fatalf("%s: Search err %v, SearchCtx err %v; SearchBatch %+v, SearchBatchCtx %+v", expr, err, errCtx, batch[i], batchCtx[i])
		}
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(res.Hits, hits) || !reflect.DeepEqual(res.Stats, stats) || res.Degraded != 0 || res.ServedBy != nil || res.Docs != nil {
			t.Fatalf("%s: SearchCtx = %+v, want Search's hits %v and stats %+v, complete, single-copy", expr, res, hits, stats)
		}
		fetched, err := acc.SearchFetchCtx(ctx, expr, 10)
		if err != nil || !reflect.DeepEqual(fetched.Hits, hits) || len(fetched.Docs) != len(hits) {
			t.Fatalf("%s: SearchFetchCtx = %+v, %v; want Search's hits and a document each", expr, fetched, err)
		}
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := acc.SearchCtx(dead, exprs[0], 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchCtx on a dead context: %v", err)
	}
	for i, it := range acc.SearchBatchCtx(dead, exprs, 10) {
		if !errors.Is(it.Err, context.Canceled) {
			t.Fatalf("SearchBatchCtx item %d on a dead context: %+v", i, it)
		}
	}
}

func TestScoresRankRareTermsHigher(t *testing.T) {
	ix := sampleIndex(t)
	// "accelerator" appears in one doc; "the" in several. A doc matching
	// the rare term should outrank one matching only the common term.
	hits, err := ix.Search(`"accelerator" OR "the"`, 10)
	if err != nil {
		t.Fatal(err)
	}
	if hits[0].Doc != "paper" {
		t.Fatalf("rare-term doc should rank first: %v", hits)
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Fatal("hits not sorted by score")
		}
	}
}

func TestAcceleratorOptionVariants(t *testing.T) {
	ix := BuildSynthetic(CCNewsLike, 0.005)
	expr := `"t0" OR "t1"`
	base, bs, err := ix.Accelerator(AccelOptions{}).Search(expr, 10)
	if err != nil {
		t.Fatal(err)
	}
	exh, es, err := ix.Accelerator(AccelOptions{DisableBlockET: true, DisableWAND: true}).Search(expr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != len(exh) {
		t.Fatal("ET changed result count")
	}
	for i := range base {
		if base[i].DocID != exh[i].DocID {
			t.Fatal("ET changed results")
		}
	}
	if es.DocsEvaluated < bs.DocsEvaluated {
		t.Fatal("exhaustive should evaluate at least as many docs")
	}
	// DRAM run must be at least as fast.
	_, ds, err := ix.Accelerator(AccelOptions{DRAM: true}).Search(expr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ds.SimulatedLatency > bs.SimulatedLatency {
		t.Fatal("DRAM latency should not exceed SCM latency")
	}
	// Fixed-point scoring completes and returns the same number of hits.
	fp, _, err := ix.Accelerator(AccelOptions{FixedPoint: true}).Search(expr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(fp) != len(base) {
		t.Fatal("fixed-point hit count differs")
	}
}

func TestBuildSynthetic(t *testing.T) {
	ix := BuildSynthetic(ClueWebLike, 0.002)
	if ix.NumDocs() == 0 || ix.NumTerms() == 0 {
		t.Fatal("synthetic index empty")
	}
	if ix.CommonTerm(0) != "t0" {
		t.Fatal("CommonTerm(0) != t0")
	}
	if ix.FootprintBytes() == 0 {
		t.Fatal("no footprint")
	}
	hits, err := ix.Search(`"t0"`, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 5 {
		t.Fatalf("top-5 on t0 returned %d hits", len(hits))
	}
	if !strings.HasPrefix(hits[0].Doc, "doc") {
		t.Fatalf("synthetic doc name %q", hits[0].Doc)
	}
}

func TestCommonTermPanicsOnUserIndex(t *testing.T) {
	ix := sampleIndex(t)
	defer func() {
		if recover() == nil {
			t.Fatal("CommonTerm on user index should panic")
		}
	}()
	ix.CommonTerm(0)
}

// TestIndexSerializationRoundTrip: an index read back from its file answers
// as the built index does, bit for bit: the hand-written index one query
// through Index.Search, and a synthetic one 300 sampled boolean queries
// through both Index.Search and Accelerator.Search.
func TestIndexSerializationRoundTrip(t *testing.T) {
	readBack := func(ix *Index) *Index {
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadIndex(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	same := func(engine, expr string, got, want []Hit) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s %s: %d hits after the round trip, want %d", engine, expr, len(got), len(want))
		}
		for i := range got {
			if got[i].DocID != want[i].DocID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("%s %s: hit %d is %d/%v after the round trip, want %d/%v",
					engine, expr, i, got[i].DocID, got[i].Score, want[i].DocID, want[i].Score)
			}
		}
	}

	ix := sampleIndex(t)
	want, err := ix.Search(`"memory"`, 10)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := readBack(ix).Search(`"memory"`, 10)
	if err != nil {
		t.Fatal(err)
	}
	same("Index.Search", `"memory"`, hits, want)

	c := corpus.Generate(corpus.CCNewsLike(0.02))
	built := &Index{idx: index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid})}
	back := readBack(built)
	builtAcc, backAcc := built.Accelerator(AccelOptions{}), back.Accelerator(AccelOptions{})
	for _, qt := range corpus.AllQueryTypes() {
		for _, q := range corpus.SampleQueries(c, qt, 50, 3) {
			for _, e := range []struct {
				name   string
				search func(*Index, *Accelerator) ([]Hit, error)
			}{
				{"Index.Search", func(ix *Index, _ *Accelerator) ([]Hit, error) { return ix.Search(q.Expr, 10) }},
				{"Accelerator.Search", func(_ *Index, acc *Accelerator) ([]Hit, error) {
					hits, _, err := acc.Search(q.Expr, 10)
					return hits, err
				}},
			} {
				want, err := e.search(built, builtAcc)
				if err != nil {
					t.Fatalf("%s %s: %v", e.name, q.Expr, err)
				}
				got, err := e.search(back, backAcc)
				if err != nil {
					t.Fatalf("%s %s after the round trip: %v", e.name, q.Expr, err)
				}
				same(e.name, q.Expr, got, want)
			}
		}
	}
}

func TestEmptyBuilderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build on empty builder should panic")
		}
	}()
	NewBuilder().Build()
}

func TestSetBM25(t *testing.T) {
	b := NewBuilder()
	b.SetBM25(2.0, 0.5)
	b.Add("a", "x y z y")
	b.Add("b", "x")
	ix := b.Build()
	hits, err := ix.Search(`"y"`, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Doc != "a" {
		t.Fatalf("hits = %v", hits)
	}
}

func TestShardedIndexErrors(t *testing.T) {
	sharded, err := Shard(CCNewsLike, 0.004, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sharded.Search(`"missing"`, 5); err == nil {
		t.Fatal("unknown term should error")
	}
	if _, err := Shard(SyntheticKind(99), 0.004, 2); err == nil {
		t.Fatal("unknown corpus kind should error")
	}
	if _, err := Shard(CCNewsLike, 0.004, 0); err == nil {
		t.Fatal("zero nodes should error")
	}
}

func TestShardedIndexSearchCtx(t *testing.T) {
	sharded, err := Shard(CCNewsLike, 0.006, 4)
	if err != nil {
		t.Fatal(err)
	}
	expr := `"t1" AND "t3"`
	want, _, err := sharded.Search(expr, 20)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sharded.SearchCtx(context.Background(), expr, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != 0 {
		t.Fatalf("clean SearchCtx degraded mask = %b", res.Degraded)
	}
	if len(res.Hits) != len(want) {
		t.Fatalf("%d hits vs %d", len(res.Hits), len(want))
	}
	for i := range want {
		if res.Hits[i].DocID != want[i].DocID {
			t.Fatalf("hit %d differs (%d vs %d)", i, res.Hits[i].DocID, want[i].DocID)
		}
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	items := sharded.SearchBatchCtx(cancelled, []string{expr, expr}, 20)
	for i, it := range items {
		if !errors.Is(it.Err, context.Canceled) {
			t.Fatalf("item %d: err = %v, want context.Canceled", i, it.Err)
		}
	}
}

func TestShardedIndexInjectFaults(t *testing.T) {
	sharded, err := Shard(CCNewsLike, 0.006, 4)
	if err != nil {
		t.Fatal(err)
	}
	sharded.InjectFaults(FaultConfig{Seed: 42, DeadNodes: []int{1}})
	res, err := sharded.SearchCtx(context.Background(), `"t0" OR "t2"`, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != 1<<1 {
		t.Fatalf("degraded mask = %b, want node 1 only", res.Degraded)
	}
	// The context-free entry points keep their contract — a node failure
	// fails the query — where the Ctx forms degrade.
	if _, _, err := sharded.Search(`"t0" OR "t2"`, 20); err == nil {
		t.Fatal("Search succeeded with a dead node")
	}
	if it := sharded.SearchBatch([]string{`"t0" OR "t2"`}, 20)[0]; it.Err == nil || it.Hits != nil {
		t.Fatalf("SearchBatch item with a dead node: hits=%v err=%v", it.Hits, it.Err)
	}
	if it := sharded.SearchBatchCtx(context.Background(), []string{`"t0" OR "t2"`}, 20)[0]; it.Err != nil || it.Degraded != 1<<1 {
		t.Fatalf("SearchBatchCtx item: err=%v degraded=%b, want node 1 degraded", it.Err, it.Degraded)
	}
	// Clearing the plan restores full availability.
	sharded.InjectFaults(FaultConfig{})
	res, err = sharded.SearchCtx(context.Background(), `"t0" OR "t2"`, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != 0 {
		t.Fatalf("degraded mask after clearing plan = %b", res.Degraded)
	}
}

func TestShardReplicatedFailsOver(t *testing.T) {
	single, err := Shard(CCNewsLike, 0.006, 4)
	if err != nil {
		t.Fatal(err)
	}
	expr := `"t1" AND "t3"`
	want, _, err := single.Search(expr, 20)
	if err != nil {
		t.Fatal(err)
	}

	repl, err := ShardReplicated(CCNewsLike, 0.006, 4, ReplicaOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := repl.SearchCtx(context.Background(), expr, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Hits, want) {
		t.Fatalf("replicated hits diverge from single-copy:\n%v\n%v", res.Hits, want)
	}
	if len(res.ServedBy) != 4 {
		t.Fatalf("ServedBy = %v, want 4 entries", res.ServedBy)
	}

	// Kill copy 0 of every node: the deployment must fail over to copy 1
	// on every shard with no degraded bits (this exercises the facade
	// arming retries for replicated deployments — without retries a query
	// routed to a dead copy degrades instead of rotating).
	repl.InjectFaults(FaultConfig{Seed: 42, DeadReplicas: []NodeReplica{
		{Node: 0, Replica: 0}, {Node: 1, Replica: 0}, {Node: 2, Replica: 0}, {Node: 3, Replica: 0},
	}})
	res, err = repl.SearchCtx(context.Background(), expr, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != 0 {
		t.Fatalf("degraded mask with surviving copies = %b, want 0", res.Degraded)
	}
	for si, ri := range res.ServedBy {
		if ri != 1 {
			t.Fatalf("node %d served by copy %d, want 1", si, ri)
		}
	}
	if !reflect.DeepEqual(res.Hits, want) {
		t.Fatalf("failover hits diverge from single-copy")
	}

	// The single-copy control with every node dead has nothing to fail
	// over to.
	single.InjectFaults(FaultConfig{Seed: 42, DeadNodes: []int{0, 1, 2, 3}})
	if _, err := single.SearchCtx(context.Background(), expr, 20); err == nil {
		t.Fatal("single-copy all-dead search unexpectedly succeeded")
	}
}

// TestShardReplicatedRejectsNegativeOptions: a negative replica count is
// refused with the cluster's ErrBadConfig, not read as one copy.
func TestShardReplicatedRejectsNegativeOptions(t *testing.T) {
	if _, err := ShardReplicated(CCNewsLike, 0.004, 2, ReplicaOptions{Replicas: -1}); !errors.Is(err, pool.ErrBadConfig) {
		t.Errorf("ShardReplicated(Replicas: -1): err = %v, want pool.ErrBadConfig", err)
	}
}

// TestHitsAllocs: an unnamed ranking is named in two allocations, its hits
// and one string their names slice (a Sprintf per hit cost 21 for ten), with
// every name byte-equal to "doc<id>"; a Builder index keeps its own names.
func TestHitsAllocs(t *testing.T) {
	ids := []uint32{0, 9, 10, math.MaxUint32, 7, 123456, 99, 100, 1000, 3}
	ranking := make([]topk.Entry, len(ids))
	for i, id := range ids {
		ranking[i] = topk.Entry{DocID: id, Score: float64(len(ids) - i)}
	}
	for i, h := range hits(nil, ranking) {
		if want := fmt.Sprintf("doc%d", ids[i]); h.Doc != want || h.DocID != ids[i] || h.Score != ranking[i].Score {
			t.Errorf("hit %d: %+v, want %s", i, h, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { hits(nil, ranking) }); allocs > 2 && !raceEnabled() {
		t.Errorf("naming a 10-hit ranking allocates %.2f, want at most 2", allocs)
	}

	names := []string{"alpha", "beta"}
	got := hits(names, []topk.Entry{{DocID: 1}, {DocID: 5}, {DocID: 0}})
	if got[0].Doc != "beta" || got[1].Doc != "doc5" || got[2].Doc != "alpha" {
		t.Errorf("a partial name table: %+v", got)
	}
	b := NewBuilder()
	b.Add("first", "the quick brown fox")
	b.Add("second", "the lazy dog")
	hs, err := b.Build().Search(`"the"`, 10)
	if err != nil || len(hs) != 2 {
		t.Fatalf("Builder index: %v, %v", hs, err)
	}
	for _, h := range hs {
		if want := []string{"first", "second"}[h.DocID]; h.Doc != want {
			t.Errorf("Builder index: doc %d named %q, want %q", h.DocID, h.Doc, want)
		}
	}
}

// raceEnabled reports a -race build, which instruments allocations.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}

// TestSoftwareEnginesRefuseCorruptBlocks: the software engine (exhaustive and
// WAND), the IIU model and Index.Search, which runs on the engine, fail a
// query whose posting block no longer matches its checksum with an error
// wrapping index.ErrCorrupt, instead of ranking around the block; restoring
// the byte gives back the original ranking. The union streams the corrupt
// list; the conjunction probes it (IIU's binary-search path).
func TestSoftwareEnginesRefuseCorruptBlocks(t *testing.T) {
	ix := BuildSynthetic(CCNewsLike, 0.004)
	t.Run("union", func(t *testing.T) { refusesCorruptBlock(t, ix, `"t0" OR "t1"`) })
	t.Run("conjunction", func(t *testing.T) { refusesCorruptBlock(t, ix, `"t1" AND "t0"`) })
}

// refusesCorruptBlock runs expr on every software engine over ix with block 4
// of "t0" intact, flipped and restored.
func refusesCorruptBlock(t *testing.T, ix *Index, expr string) {
	const k = 1000
	node := query.MustParse(expr)
	wand := engine.New(ix.idx)
	wand.EnableWAND()
	for _, tc := range []struct {
		name string
		run  func() ([]topk.Entry, error)
	}{
		{"engine", func() ([]topk.Entry, error) {
			res, err := engine.New(ix.idx).Run(node, k)
			return res.TopK, err
		}},
		{"engine WAND", func() ([]topk.Entry, error) {
			res, err := wand.Run(node, k)
			return res.TopK, err
		}},
		{"iiu", func() ([]topk.Entry, error) {
			res, err := iiu.New(ix.idx).Run(node, k)
			return res.TopK, err
		}},
		{"Index.Search", func() ([]topk.Entry, error) {
			hs, err := ix.Search(expr, k)
			es := make([]topk.Entry, len(hs))
			for i, h := range hs {
				es[i] = topk.Entry{DocID: h.DocID, Score: h.Score}
			}
			return es, err
		}},
	} {
		clean, err := tc.run()
		if err != nil || len(clean) == 0 {
			t.Fatalf("%s: clean run: %d hits, %v", tc.name, len(clean), err)
		}
		pl := ix.idx.Lists["t0"]
		at := pl.Blocks[4].Offset
		pl.Data[at] ^= 0x01
		got, err := tc.run()
		pl.Data[at] ^= 0x01
		if !errors.Is(err, index.ErrCorrupt) {
			t.Errorf("%s over a corrupt block: %d hits, error %v; want an error wrapping index.ErrCorrupt", tc.name, len(got), err)
		}
		if again, err := tc.run(); err != nil || !slices.Equal(again, clean) {
			t.Errorf("%s after restoring the block: %d hits, %v; want the original %d", tc.name, len(again), err, len(clean))
		}
	}
}
