package pool

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"boss/internal/corpus"
)

// entryPoint runs a query stream through one of the cluster's exported
// search/fetch surfaces and returns one result per query, in order.
type entryPoint struct {
	name string
	run  func(cl *Cluster, exprs []string, k int) ([]*ClusterResult, error)
}

// perQuery adapts a single-query entry point to the stream form.
func perQuery(call func(cl *Cluster, expr string, k int) (*ClusterResult, error)) func(*Cluster, []string, int) ([]*ClusterResult, error) {
	return func(cl *Cluster, exprs []string, k int) ([]*ClusterResult, error) {
		out := make([]*ClusterResult, len(exprs))
		for i, e := range exprs {
			res, err := call(cl, e, k)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", e, err)
			}
			out[i] = res
		}
		return out, nil
	}
}

// batchOf runs the stream as one SearchBatchQueries batch.
func batchOf(build func(expr string, k int) BatchQuery) func(*Cluster, []string, int) ([]*ClusterResult, error) {
	return func(cl *Cluster, exprs []string, k int) ([]*ClusterResult, error) {
		qs := make([]BatchQuery, len(exprs))
		for i, e := range exprs {
			qs[i] = build(e, k)
		}
		br := runBatch(context.Background(), cl, qs)
		out := make([]*ClusterResult, len(qs))
		for i := range out {
			out[i], _ = slot(br, i)
		}
		return out, br.Err
	}
}

// searchThenFetch is the two-call form of search+fetch: SearchCtx, then a
// fetch of the hits, folded the way the documented contract says the
// one-call forms fold them (Docs from the fetch, link traffic summed,
// fetch work merged into the owning shard's metrics).
func searchThenFetch(fetch func(cl *Cluster, ids []uint32) (*ClusterResult, error)) func(*Cluster, string, int) (*ClusterResult, error) {
	return func(cl *Cluster, expr string, k int) (*ClusterResult, error) {
		res, err := cl.SearchCtx(context.Background(), expr, k)
		if err != nil {
			return nil, err
		}
		ids := make([]uint32, len(res.TopK))
		for i, e := range res.TopK {
			ids[i] = e.DocID
		}
		fr, err := fetch(cl, ids)
		if err != nil {
			return nil, err
		}
		if fr.Degraded != 0 || fr.ShardErrs != nil {
			return nil, fmt.Errorf("clean fetch degraded: %b", fr.Degraded)
		}
		res.Docs = fr.Docs
		res.LinkBytes += fr.LinkBytes
		for si, m := range fr.PerShard {
			switch {
			case m == nil:
			case res.PerShard[si] == nil:
				res.PerShard[si] = m
			default:
				res.PerShard[si].Merge(m)
			}
		}
		return res, nil
	}
}

// TestEntryPointsAgree is the wrapper contract of the cluster's request
// surface: on a clean cluster (no fault plan) every exported entry point
// returns the same ranking, the same per-shard simulated work (perf.Metrics: bytes by category, accesses, compute time)
// and the same link traffic for the same query — whatever the worker
// width, replica count or cache setting — and every way of getting
// documents returns the same payloads. The first row of each table is the
// reference the others are compared against.
func TestEntryPointsAgree(t *testing.T) {
	ctx := context.Background()
	searches := []entryPoint{
		{"SearchSerial", perQuery((*Cluster).SearchSerial)},
		{"Search", perQuery((*Cluster).Search)},
		{"SearchCtx", perQuery(func(cl *Cluster, e string, k int) (*ClusterResult, error) {
			return cl.SearchCtx(ctx, e, k)
		})},
		{"SearchBatchQueries", batchOf(func(e string, k int) BatchQuery {
			return BatchQuery{Expr: e, K: k}
		})},
	}
	fetches := []entryPoint{
		{"SearchFetchCtx", perQuery(func(cl *Cluster, e string, k int) (*ClusterResult, error) {
			return cl.SearchFetchCtx(ctx, e, k)
		})},
		{"SearchBatchQueries{WithDocs}", batchOf(func(e string, k int) BatchQuery {
			return BatchQuery{Expr: e, K: k, WithDocs: true}
		})},
		{"SearchCtx+FetchBatch", perQuery(searchThenFetch(func(cl *Cluster, ids []uint32) (*ClusterResult, error) {
			return cl.FetchBatch(ctx, ids)
		}))},
		// The front door's form: the fetch leg is a FetchIDs query of a
		// batch (which cannot spell a fetch of nothing).
		{"SearchCtx+SearchBatchQueries{FetchIDs}", perQuery(searchThenFetch(func(cl *Cluster, ids []uint32) (*ClusterResult, error) {
			if len(ids) == 0 {
				return cl.FetchBatch(ctx, ids)
			}
			return slot(runBatch(ctx, cl, []BatchQuery{{FetchIDs: ids}}), 0)
		}))},
	}

	c := corpus.Generate(corpus.CCNewsLike(0.004))
	var exprs []string
	for _, qt := range corpus.AllQueryTypes() {
		for _, q := range corpus.SampleQueries(c, qt, 3, 20260928) {
			exprs = append(exprs, q.Expr)
		}
	}
	const k = 10
	base := mustCluster(t, DefaultConfig(), c, 4)
	for _, workers := range []int{1, 4} {
		for _, replicas := range []int{1, 2} {
			for _, cacheBytes := range []int64{0, DefaultCacheBytes} {
				cfg := DefaultConfig()
				cfg.Workers, cfg.Replicas, cfg.CacheBytes = workers, replicas, cacheBytes
				t.Run(fmt.Sprintf("workers=%d/replicas=%d/cache=%d", workers, replicas, cacheBytes), func(t *testing.T) {
					cl, err := base.Fresh(cfg)
					if err != nil {
						t.Fatal(err)
					}
					for _, table := range [][]entryPoint{searches, fetches} {
						var want []*ClusterResult
						for _, ep := range table {
							got, err := ep.run(cl, exprs, k)
							if err != nil {
								t.Fatalf("%s: %v", ep.name, err)
							}
							if want == nil {
								want = got
								requireHits(t, table[0].name, want)
							}
							for i, expr := range exprs {
								compareResults(t, ep.name+" vs "+table[0].name+": "+expr, got[i], want[i])
							}
						}
					}
				})
			}
		}
	}
}

// requireHits keeps the comparison from passing vacuously: the reference
// stream must rank documents for most queries.
func requireHits(t *testing.T, name string, rs []*ClusterResult) {
	t.Helper()
	withHits := 0
	for _, r := range rs {
		if len(r.TopK) > 0 {
			withHits++
		}
	}
	if 2*withHits < len(rs) {
		t.Fatalf("%s: only %d of %d reference queries returned hits", name, withHits, len(rs))
	}
}

// compareResults asserts everything a clean result promises except replica
// attribution (ServedBy names a copy, not an answer).
func compareResults(t *testing.T, what string, got, want *ClusterResult) {
	t.Helper()
	if got.Degraded != 0 || got.ShardErrs != nil {
		t.Fatalf("%s: clean cluster reported degradation %b %v", what, got.Degraded, got.ShardErrs)
	}
	if !reflect.DeepEqual(got.TopK, want.TopK) {
		t.Fatalf("%s: TopK differs\n got %v\nwant %v", what, got.TopK, want.TopK)
	}
	if !reflect.DeepEqual(got.PerShard, want.PerShard) {
		t.Fatalf("%s: per-shard metrics differ", what)
	}
	if got.LinkBytes != want.LinkBytes {
		t.Fatalf("%s: link bytes %d != %d", what, got.LinkBytes, want.LinkBytes)
	}
	if !reflect.DeepEqual(got.Docs, want.Docs) {
		t.Fatalf("%s: documents differ", what)
	}
}
