package pool

import (
	"context"
	"fmt"
	"sort"

	"boss/internal/core"
	"boss/internal/corpus"
	"boss/internal/docstore"
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
// Fetches ride the same resilience machinery as searches: per-shard
// circuit breakers, bounded retry with jittered backoff, per-attempt
// deadlines, and graceful degradation (a failed shard zeroes its
// documents and sets its Degraded bit instead of failing the batch).

// FetchedDoc is one fetched document at the cluster boundary. Fields are
// copies (one per DocFields entry, in order), so the caller owns them
// outright — no pins or aliases into shard caches escape the cluster.
type FetchedDoc struct {
	DocID  uint32
	Fields [][]byte
}

// DocFields returns the document stores' field names, in the order
// FetchedDoc.Fields uses. Builds the stores if they don't exist yet.
func (cl *Cluster) DocFields() ([]string, error) {
	if err := cl.EnsureDocs(); err != nil {
		return nil, err
	}
	return cl.docs[0].Fields, nil
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
	cl.docs = make([]*docstore.Store, len(cl.shards))
	cl.fetchers = make([][]*core.FetchEngine, len(cl.shards))
	var name, text []byte
	for si := range cl.shards {
		lo := cl.offsets[si]
		hi := uint32(cl.spec.NumDocs)
		if si+1 < len(cl.offsets) {
			hi = cl.offsets[si+1]
		}
		b := docstore.NewBuilder("name", "text")
		for g := lo; g < hi; g++ {
			name = corpus.DocName(name[:0], g)
			text = corpus.DocText(cl.spec.Seed, g, cl.docLens[g], cl.spec.NumTerms, text[:0])
			if err := b.Add(name, text); err != nil {
				cl.docsErr = err
				return
			}
		}
		cl.docs[si] = b.Build()
		reps := make([]*core.FetchEngine, cl.Replicas())
		for ri := range reps {
			store := cl.docs[si]
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
// runs the involved shards' fetches with the full resilience machinery
// (masked-out shards are skipped and reported with ErrShardShed, like
// runShardMasked) and folds the outcomes into res — a fresh result for a
// fetch query, the search's result for WithDocs: Docs holds one entry per
// id, the fetch work merges into PerShard and LinkBytes, and fetch
// failures join the Degraded mask. shardWorkers is exec's.
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
	byShard := make([][]uint32, len(cl.shards))
	pos := make([][]int, len(cl.shards))
	for i, id := range ids {
		if int(id) >= cl.spec.NumDocs {
			return nil, fetchRangeError(id, cl.spec.NumDocs)
		}
		si := cl.shardOfDoc(id)
		byShard[si] = append(byShard[si], id)
		pos[si] = append(pos[si], i)
	}
	outs := make([]shardOut, len(cl.shards))
	if shardWorkers == 1 {
		for si := range outs {
			outs[si] = cl.fetchShardMasked(ctx, si, byShard[si], pos[si], res.Docs, mask)
		}
	} else {
		forEach(ctx, len(outs), shardWorkers, func(si int) {
			outs[si] = cl.fetchShardMasked(ctx, si, byShard[si], pos[si], res.Docs, mask)
		})
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Only the shards that own a requested document are involved; the call
	// fails when every one of them did.
	involved, failed := 0, 0
	var firstErr error
	for si, out := range outs {
		if len(byShard[si]) == 0 {
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
			for _, p := range pos[si] {
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

// fetchShardMasked runs one shard's share of a fetch under the front-door
// mask; a shard that owns none of the requested documents does nothing.
func (cl *Cluster) fetchShardMasked(ctx context.Context, si int, ids []uint32, pos []int, docs []FetchedDoc, mask uint64) shardOut {
	if len(ids) == 0 {
		return shardOut{}
	}
	if !maskHas(mask, si) {
		return shardOut{err: shedShardError(si)}
	}
	m, err := cl.fetchShardResilient(ctx, si, ids, pos, docs)
	return shardOut{m: m, err: err}
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

// fetchShardResilient drives one shard's fetch attempt loop:
// breaker-aware replica selection, bounded retry with jittered backoff,
// parent-context awareness — the fetch twin of runShardResilient,
// sharing its per-replica breaker state so a copy that fails searches
// also sheds fetches. Fetches are never hedged: a fetch attempt writes
// payloads into the caller's docs slice in place, and two racing
// attempts would tear those writes.
func (cl *Cluster) fetchShardResilient(ctx context.Context, si int, ids []uint32, pos []int, docs []FetchedDoc) (*perf.Metrics, error) {
	qkey := fetchQueryKey(ids)
	for attempt := 0; ; attempt++ {
		if cause := ctx.Err(); cause != nil {
			return nil, shardError(si, cause)
		}
		st, ri, ok := cl.pickReplica(si, qkey, attempt)
		if !ok {
			return nil, breakerError(si)
		}
		recordAttempt(st, attempt)
		m, err := cl.fetchShardAttempt(ctx, si, ri, ids, pos, docs)
		cl.settle(st, err, attempt)
		if err == nil {
			return m, nil
		}
		if attempt >= cl.res.MaxRetries || !cl.retryableOn(err, si) {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, err
		}
		d := cl.res.backoffDelay(si, attempt)
		recordBackoff(st, attempt, d)
		if cl.sleepFn(ctx, d) != nil {
			return nil, err // context died during backoff: report the last failure
		}
	}
}

// fetchShardAttempt issues one fetch attempt on replica ri of shard si
// under the per-attempt deadline: every requested document streams
// through the replica's fetch engine, and the payloads are copied into
// docs at their input positions. A fresh Metrics per attempt keeps
// retried attempts from double-charging the recorded shard work.
func (cl *Cluster) fetchShardAttempt(ctx context.Context, si, ri int, ids []uint32, pos []int, docs []FetchedDoc) (*perf.Metrics, error) {
	if cl.res.ShardTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cl.res.ShardTimeout)
		defer cancel()
	}
	eng := cl.fetchers[si][ri]
	off := cl.offsets[si]
	m := perf.NewMetrics()
	var buf core.DocBuf
	defer buf.Release()
	for j, id := range ids {
		if err := eng.FetchInto(ctx, id-off, m, &buf); err != nil {
			return nil, shardError(si, err)
		}
		d := &docs[pos[j]]
		d.DocID = id
		d.Fields = copyFields(d.Fields, buf.Fields)
		var n int64
		for _, f := range buf.Fields {
			n += int64(len(f))
		}
		// The returned payload crosses the shared interconnect to the root.
		m.AddHost(n, mem.CatLoadDoc)
	}
	return m, nil
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
