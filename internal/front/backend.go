package front

import (
	"context"

	"boss/internal/pool"
	"boss/internal/topk"
)

// Out receives one query's results from a backend batch execution. The
// front door owns the out slice; backends fill entries in place so the
// flush path never allocates per-request result wrappers.
type Out struct {
	// TopK is the query's merged global ranking. The backend relinquishes
	// the slice; exactly one flight takes ownership.
	TopK []topk.Entry
	// Docs holds fetched document payloads for a FetchIDs query, aligned
	// with the id list. The backend relinquishes the slice.
	Docs []pool.FetchedDoc
	// Degraded is the bitmask of shards missing from TopK — shed by the
	// front door or failed in the backend (mirrors
	// pool.ClusterResult.Degraded). Zero means complete.
	Degraded uint64
	// Err is the query's terminal error, if execution failed outright.
	Err error
}

// Backend executes a formed batch. Implementations must fill out[i] for
// every qs[i] before returning; out has exactly len(qs) entries. Every search
// arrives with Prepared set: the key cache's shared value, read, never written.
type Backend interface {
	// Shards reports the backend's shard count, used to size degradation
	// masks. A single-device backend reports 1.
	Shards() int
	// ExecuteBatch runs every query and fills the caller-provided out
	// slice. It must not retain qs or out past the call.
	ExecuteBatch(ctx context.Context, qs []pool.BatchQuery, out []Out)
}

// ClusterBackend adapts a pool.Cluster to the Backend interface, passing
// per-query shard masks through so degraded admissions execute on a
// subset of shards. It keeps one pool.BatchResult across batches, so a warm
// batch allocates only the answers it hands off (each query's TopK, a
// fetch's Docs). ExecuteBatch calls must not overlap; a Front makes them one
// at a time, from its executor goroutine.
type ClusterBackend struct {
	cl *pool.Cluster
	br pool.BatchResult
}

// NewClusterBackend wraps a cluster for use as a front-door backend.
func NewClusterBackend(cl *pool.Cluster) *ClusterBackend {
	return &ClusterBackend{cl: cl}
}

// Shards reports the cluster's shard count.
func (b *ClusterBackend) Shards() int { return b.cl.Shards() }

// ExecuteBatch runs the batch through the cluster's resilient batch path,
// into the backend's reused BatchResult, and hands each query's TopK and
// Docs — the only storage the next batch does not overwrite — to out.
//
//boss:hotpath once per flushed batch.
func (b *ClusterBackend) ExecuteBatch(ctx context.Context, qs []pool.BatchQuery, out []Out) {
	b.cl.SearchBatchQueries(ctx, qs, &b.br)
	for i := range qs {
		if err := b.br.Errs[i]; err != nil {
			out[i] = Out{Err: err}
			continue
		}
		res := &b.br.Results[i]
		out[i] = Out{TopK: res.TopK, Docs: res.Docs, Degraded: res.Degraded}
	}
}
