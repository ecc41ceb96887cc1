package pool

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"boss/internal/core"
	"boss/internal/docstore"
	"boss/internal/mem"
	"boss/internal/perf"
)

// Fetch phase of cluster serving: after the root merge ends at scored
// global docIDs, the documents themselves live on the shards that scored
// them. FetchBatch routes each requested docID to its owning shard's
// document store, fetches through the shard's fetch engine (charging the
// shard's simulated SCM under mem.CatLoadDoc, and each returned payload
// to the host link), and copies the payloads out at the cluster boundary,
// into one arena per answer.
// The per-shard stores come lazily from the cluster's store source:
// NewCluster's synthesizes them from the retained sampler statistics —
// payload bytes depend only on (Seed, global docID, DocLens), so every
// shard count packs byte-identical documents and fetch results are
// sharding-independent — and NewSingle's is its caller's.
//
// A fetch is shard work like a search: it goes through the same sweep and
// the same attempt loop (runShard) — the same per-copy circuit breakers,
// bounded retry with jittered backoff, front-door mask — and degrades the
// same way (a failed shard's documents stay zero-valued and its Degraded
// bit is set instead of failing the batch). Only the attempt body
// (fetchShard) and the fold are its own.

// FetchedDoc is one fetched document at the cluster boundary. Fields are
// copies (name, then text: the stores' field order), so no pins or aliases
// into shard caches escape the cluster. The copies of one answer's
// documents share its arena: one byte slab for every field and one slab of
// field headers, each field capped at its own length so that an append to
// it reallocates rather than reach its neighbour. A retained document
// therefore keeps its whole answer's slabs alive.
type FetchedDoc struct {
	DocID  uint32
	Fields [][]byte
}

// EnsureDocs builds the per-shard document stores and fetch engines if
// they have not been built yet. Safe for concurrent use; the build runs
// once, and its error (the store source's) is every fetch's after it.
// Search-only clusters never pay for it.
func (cl *Cluster) EnsureDocs() error {
	cl.docsOnce.Do(cl.buildDocs)
	return cl.docsErr
}

// buildDocs asks the store source for one document store per shard, over
// the shard's global docID interval, on every P, the caller included. Once
// all are built it wires one fetch engine per replica of each shard, in
// shard order, so stores take their cache identities in the same order at
// every width. Every replica's engine serves the shard's store and draws
// faults from the replica's own injector domain, mirroring buildReplicas:
// FetchInto makes its fault draw before it reads the cache's answer, so a
// shared store identity never lets one copy's decode mask another's fault.
// The first failing shard's error is the build's. Runs under docsOnce.
func (cl *Cluster) buildDocs() {
	stores := make([]*docstore.Store, len(cl.shards))
	errs := make([]error, len(cl.shards))
	var next atomic.Int64
	work := func() {
		for {
			si := int(next.Add(1) - 1)
			if si >= len(stores) {
				return
			}
			lo := cl.offsets[si]
			stores[si], errs[si] = cl.docs(lo, lo+uint32(cl.shards[si].NumDocs))
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), len(stores)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			cl.docsErr = err
			return
		}
	}

	cl.fetchers = make([][]*core.FetchEngine, len(cl.shards))
	for si, store := range stores {
		reps := make([]*core.FetchEngine, cl.Replicas())
		for ri := range reps {
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
// result's Docs holds one entry per requested id, in input order, in one
// arena (FetchedDoc); TopK stays empty. Shard failures degrade: the failed
// shard's documents are zero-valued, its Degraded bit is set, and its
// error lands in ShardErrs. The call errors only on invalid ids, a dead
// context, or when every involved shard failed.
func (cl *Cluster) FetchBatch(ctx context.Context, ids []uint32) (*ClusterResult, error) {
	// exec, straight into its fetch arm: BatchQuery spells a fetch as a
	// non-empty FetchIDs, and an empty id list is still a (vacuous) fetch.
	rec := cl.records.Get().(*queryRec)
	res := cl.newResult()
	err := cl.fetch(liveCtx(ctx), rec, res, ids, 0, cl.workers(len(cl.shards)))
	rec.reset(cl.poison)
	cl.records.Put(rec)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// fetch is exec's fetch arm. It routes each docID to its owning shard,
// sweeps the shards like a search does and folds the outcomes into res — an
// empty result for a fetch query, the search's result for WithDocs: Docs
// holds one entry per id, the fetch work merges into PerShard and
// LinkBytes, and fetch failures join the Degraded mask. The fold is not
// mergePartial's: only the shards that own a requested document are
// involved, and the call fails when every one of *them* did. The surviving
// shards' payloads are copied out of the record into the answer's arena
// (arena); a failed shard's documents are never written, so they keep the
// zero value. rec is the request's record, which routes the ids;
// shardWorkers is exec's.
func (cl *Cluster) fetch(ctx context.Context, rec *queryRec, res *ClusterResult, ids []uint32, mask uint64, shardWorkers int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := cl.EnsureDocs(); err != nil {
		return err
	}
	res.Docs = make([]FetchedDoc, len(ids))
	if len(ids) == 0 {
		return nil
	}
	// Route each requested docID to its owning shard, remembering where in
	// the input it goes back.
	n := cl.numDocs()
	for i, id := range ids {
		if int(id) >= n {
			return fetchRangeError(id, n)
		}
		si := cl.shardOfDoc(id)
		rec.ids[si] = append(rec.ids[si], id)
		rec.pos[si] = append(rec.pos[si], i)
	}
	outs := cl.sweep(ctx, shardWork{rec: rec, fetch: true}, mask, shardWorkers)
	if err := ctx.Err(); err != nil {
		return err
	}
	involved, failed := 0, 0
	var firstErr error
	for si, out := range outs {
		if len(rec.ids[si]) == 0 {
			continue
		}
		involved++
		if out.err != nil {
			failed++
			if firstErr == nil {
				firstErr = out.err
			}
			res.fail(si, out.err)
			continue
		}
		res.addShard(si, out.m)
	}
	if failed == involved {
		return firstErr
	}
	rec.arena(res.Docs)
	return nil
}

// arena copies the documents of every shard whose fetch succeeded (outs
// without an error) from the record's payload scratch into docs at their
// input positions: all their bytes into one slab, all their field headers
// into another, each field capped at its own length (an empty field is nil).
// A shard's scratch holds the same number of fields for each of its
// documents, its store's field count.
func (rec *queryRec) arena(docs []FetchedDoc) {
	nb, nf := 0, 0
	for si, out := range rec.outs {
		if len(rec.ids[si]) > 0 && out.err == nil {
			nb += len(rec.payload[si])
			nf += len(rec.flens[si])
		}
	}
	slab, fields := make([]byte, nb), make([][]byte, nf)
	for si, out := range rec.outs {
		ids := rec.ids[si]
		if len(ids) == 0 || out.err != nil {
			continue
		}
		copy(slab, rec.payload[si])
		flens := rec.flens[si]
		per := len(flens) / len(ids)
		for j, p := range rec.pos[si] {
			d := &docs[p]
			d.DocID = ids[j]
			d.Fields, fields = fields[:per:per], fields[per:]
			for fi, n := range flens[j*per : (j+1)*per] {
				if n > 0 {
					d.Fields[fi], slab = slab[:n:n], slab[n:]
				}
			}
		}
	}
}

// FetchKey folds a fetch's docID list, in order, into a stable key. The
// replica rotation hashes on it, so a given fetch routes to the same copy
// across replays just like a search expression does, and the front door
// keys fetch flights on it.
func FetchKey(ids []uint32) uint64 {
	var key uint64
	for _, id := range ids {
		key = splitmix64(key ^ uint64(id))
	}
	return key
}

// fetchShard is attempt's fetch body: every document routed to shard si
// streams through replica ri's fetch engine into the record's buffer for
// the shard, and its fields are appended to the shard's payload scratch,
// which fetch copies into the answer once the sweep is over. The shard's
// metrics record and scratch are reset per attempt, so a retried attempt
// neither double-charges the recorded shard work nor keeps a failed
// attempt's payloads. A shard's attempts run one at a time, so the scratch
// has one writer.
func (cl *Cluster) fetchShard(ctx context.Context, w shardWork, si, ri int) shardOut {
	eng := cl.fetchers[si][ri]
	off := cl.offsets[si]
	m := &w.rec.ms[si]
	*m = perf.Metrics{}
	payload, flens := &w.rec.payload[si], &w.rec.flens[si]
	*payload, *flens = (*payload)[:0], (*flens)[:0]
	buf := &w.rec.bufs[si]
	defer buf.Release()
	for _, id := range w.rec.ids[si] {
		if err := eng.FetchInto(ctx, id-off, m, buf); err != nil {
			return shardOut{err: shardError(si, err)}
		}
		n := len(*payload)
		for _, f := range buf.Fields {
			*payload = append(*payload, f...)
			*flens = append(*flens, len(f))
		}
		// The returned payload crosses the shared interconnect to the root.
		m.AddHost(int64(len(*payload)-n), mem.CatLoadDoc)
	}
	return shardOut{m: m}
}

// SearchFetchCtx is SearchCtx plus the fetch phase: the merged top-k's
// documents come back in Docs (one entry per TopK entry, in rank order).
// Search and fetch degrade independently; both phases' failed shards
// appear in the Degraded mask.
func (cl *Cluster) SearchFetchCtx(ctx context.Context, expr string, k int) (*ClusterResult, error) {
	return cl.execFresh(ctx, BatchQuery{Expr: expr, K: k, WithDocs: true}, cl.workers(len(cl.shards)))
}
