package pool

import (
	"context"
	"fmt"
	"sort"

	"boss/internal/core"
	"boss/internal/corpus"
	"boss/internal/mem"
	"boss/internal/perf"
)

// Fetch phase of cluster serving: after the root merge ends at scored
// global docIDs, the documents themselves live on the shards that scored
// them. FetchBatch routes each requested docID to its owning shard's
// document store, fetches through the shard's fetch engine (charging the
// shard's simulated SCM under mem.CatLoadDoc), and copies the payloads
// out at the cluster boundary. The per-shard stores are synthesized
// lazily from the retained sampler statistics — payload bytes depend
// only on (Seed, global docID, DocLens), so every shard count packs
// byte-identical documents and fetch results are sharding-independent.
//
// A fetch is shard work like a search: it goes through the same sweep and
// the same attempt loop (runShard) — the same per-copy circuit breakers,
// bounded retry with jittered backoff, front-door mask — and degrades the
// same way (a failed shard zeroes its documents and sets its Degraded bit
// instead of failing the batch). Only the attempt body (fetchShard) and
// the fold are its own.

// FetchedDoc is one fetched document at the cluster boundary. Fields are
// copies (name, then text: the stores' field order), so the caller owns
// them outright — no pins or aliases into shard caches escape the cluster.
type FetchedDoc struct {
	DocID  uint32
	Fields [][]byte
}

// EnsureDocs builds the per-shard document stores and fetch engines if
// they have not been built yet. Safe for concurrent use; the build runs
// once. Search-only clusters never pay for it.
func (cl *Cluster) EnsureDocs() error {
	cl.docsOnce.Do(cl.buildDocs)
	return cl.docsErr
}

// buildDocs synthesizes one document store per shard over the shard's
// global docID interval, then one fetch engine per replica of the shard.
// Replica 0 serves the base store; higher replicas serve ReplicaViews
// (shared payload bytes, fresh cache identity) and draw faults from
// their own injector domain, mirroring buildReplicas. Runs under
// docsOnce.
func (cl *Cluster) buildDocs() {
	cl.fetchers = make([][]*core.FetchEngine, len(cl.shards))
	for si := range cl.shards {
		hi := uint32(cl.spec.NumDocs)
		if si+1 < len(cl.offsets) {
			hi = cl.offsets[si+1]
		}
		base, err := corpus.DocStore(cl.spec, cl.docLens, cl.offsets[si], hi)
		if err != nil {
			cl.docsErr = err
			return
		}
		reps := make([]*core.FetchEngine, cl.Replicas())
		for ri := range reps {
			store := base
			if ri > 0 {
				store = store.ReplicaView()
			}
			eng := core.NewFetchEngine(store, cl.cache)
			if cl.faultPlan != nil {
				eng.SetFault(cl.faultPlan.InjectorFor(cl.ReplicaDevice(si, ri)))
			}
			reps[ri] = eng
		}
		cl.fetchers[si] = reps
	}
}

// shardOfDoc returns the shard owning global docID id (offsets are the
// sorted interval starts).
func (cl *Cluster) shardOfDoc(id uint32) int {
	return sort.Search(len(cl.offsets), func(i int) bool { return cl.offsets[i] > id }) - 1
}

// fetchRangeError reports a request for a docID the corpus doesn't hold.
func fetchRangeError(id uint32, n int) error {
	return fmt.Errorf("pool: fetch docID %d out of range (corpus holds %d documents)", id, n)
}

// FetchBatch fetches the documents with the given global docIDs. The
// result's Docs holds one entry per requested id, in input order; TopK
// stays empty. Shard failures degrade: the failed shard's documents are
// zero-valued, its Degraded bit is set, and its error lands in
// ShardErrs. The call errors only on invalid ids, a dead context, or
// when every involved shard failed.
func (cl *Cluster) FetchBatch(ctx context.Context, ids []uint32) (*ClusterResult, error) {
	// Straight to exec's fetch arm: BatchQuery spells a fetch as a
	// non-empty FetchIDs, and an empty id list is still a (vacuous) fetch.
	return cl.fetch(liveCtx(ctx), cl.newResult(), ids, 0, cl.workers(len(cl.shards)))
}

// fetch is exec's fetch arm. It routes each docID to its owning shard,
// sweeps the shards like a search does and folds the outcomes into res — a
// fresh result for a fetch query, the search's result for WithDocs: Docs
// holds one entry per id, the fetch work merges into PerShard and
// LinkBytes, and fetch failures join the Degraded mask. The fold is not
// mergePartial's: only the shards that own a requested document are
// involved, and the call fails when every one of *them* did. shardWorkers
// is exec's.
func (cl *Cluster) fetch(ctx context.Context, res *ClusterResult, ids []uint32, mask uint64, shardWorkers int) (*ClusterResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := cl.EnsureDocs(); err != nil {
		return nil, err
	}
	res.Docs = make([]FetchedDoc, len(ids))
	if len(ids) == 0 {
		return res, nil
	}
	// Route each requested docID to its owning shard, remembering where in
	// the input it goes back.
	w := shardWork{
		ids:  make([][]uint32, len(cl.shards)),
		pos:  make([][]int, len(cl.shards)),
		docs: res.Docs,
	}
	for i, id := range ids {
		if int(id) >= cl.spec.NumDocs {
			return nil, fetchRangeError(id, cl.spec.NumDocs)
		}
		si := cl.shardOfDoc(id)
		w.ids[si] = append(w.ids[si], id)
		w.pos[si] = append(w.pos[si], i)
	}
	outs := cl.sweep(ctx, w, mask, shardWorkers)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	involved, failed := 0, 0
	var firstErr error
	for si, out := range outs {
		if len(w.ids[si]) == 0 {
			continue
		}
		involved++
		if out.err != nil {
			failed++
			if firstErr == nil {
				firstErr = out.err
			}
			res.fail(si, out.err)
			// A failed attempt may have partially populated its documents;
			// zero them so degraded entries are unambiguous.
			for _, p := range w.pos[si] {
				res.Docs[p] = FetchedDoc{}
			}
			continue
		}
		res.LinkBytes += out.m.HostBytes
		if res.PerShard[si] == nil {
			res.PerShard[si] = out.m
		} else {
			res.PerShard[si].Merge(out.m)
		}
	}
	if failed == involved {
		return nil, firstErr
	}
	return res, nil
}

// fetchQueryKey folds a fetch's docID set into the stable query key the
// replica rotation hashes on, so a given fetch routes to the same copy
// across replays just like a search expression does.
func fetchQueryKey(ids []uint32) uint64 {
	var key uint64
	for _, id := range ids {
		key = splitmix64(key ^ uint64(id))
	}
	return key
}

// fetchShard is attempt's fetch body: every document routed to shard si
// streams through replica ri's fetch engine, and the payloads are copied
// into w.docs at their input positions. A fresh Metrics per attempt keeps
// retried attempts from double-charging the recorded shard work.
func (cl *Cluster) fetchShard(ctx context.Context, w shardWork, si, ri int) shardOut {
	eng := cl.fetchers[si][ri]
	off := cl.offsets[si]
	pos := w.pos[si]
	m := perf.NewMetrics()
	var buf core.DocBuf
	defer buf.Release()
	for j, id := range w.ids[si] {
		if err := eng.FetchInto(ctx, id-off, m, &buf); err != nil {
			return shardOut{err: shardError(si, err)}
		}
		d := &w.docs[pos[j]]
		d.DocID = id
		d.Fields = copyFields(d.Fields, buf.Fields)
		var n int64
		for _, f := range buf.Fields {
			n += int64(len(f))
		}
		// The returned payload crosses the shared interconnect to the root.
		m.AddHost(n, mem.CatLoadDoc)
	}
	return shardOut{m: m}
}

// copyFields replaces dst with copies of src's field slices, reusing
// dst's backing array across calls.
func copyFields(dst, src [][]byte) [][]byte {
	dst = dst[:0]
	for _, f := range src {
		dst = append(dst, append([]byte(nil), f...))
	}
	return dst
}

// SearchFetchCtx is SearchCtx plus the fetch phase: the merged top-k's
// documents come back in Docs (one entry per TopK entry, in rank order).
// Search and fetch degrade independently; both phases' failed shards
// appear in the Degraded mask.
func (cl *Cluster) SearchFetchCtx(ctx context.Context, expr string, k int) (*ClusterResult, error) {
	return cl.exec(ctx, BatchQuery{Expr: expr, K: k, WithDocs: true}, cl.workers(len(cl.shards)))
}
