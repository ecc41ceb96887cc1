package pool

import (
	"context"

	"boss/internal/core"
	"boss/internal/perf"
	"boss/internal/topk"
)

// queryRec is one request's working storage below exec, recycled through the
// cluster's pool so that a warm request allocates only what it returns. Per
// shard it holds the sweep's outcome, the metrics record and the slab region
// a search attempt charges and ranks into, the plan narrowed to the shard's
// dictionary, and a fetch's routing, document buffer and payload scratch;
// besides, the hit list a WithDocs search fetches. Nothing a result carries
// points into it: mergePartial copies the metrics out and merges the shards'
// lists into a TopK of its own, and fetch copies the payloads into the
// answer's arena. A hedged search shard runs without it (shardWork.rec).
type queryRec struct {
	outs  []shardOut
	ms    []perf.Metrics
	plans []planBuf
	bufs  []core.DocBuf
	ids   [][]uint32 // a fetch's docIDs routed to each shard
	pos   [][]int    // where each of them goes back in the request
	// A fetch attempt's payloads on each shard: the field bytes of the
	// shard's documents back to back, in routing order, and each field's
	// length. fetchShard truncates them as an attempt starts.
	payload [][]byte
	flens   [][]int
	hits    []uint32 // a WithDocs search's hits, the ids its fetch asks for
	// slab holds every shard's top-k for a request of depth k: shard si's
	// region is slab[si*k : (si+1)*k] (region). sizeSlab grows it.
	slab []topk.Entry

	// The sweep in flight (sweep), which sweepShard reads. sweepFn is
	// sweepShard, bound once, so handing it to ForEach allocates nothing.
	cl      *Cluster
	ctx     context.Context
	work    shardWork
	mask    uint64
	sweepFn func(si int)
}

// newRecord builds an empty record for the cluster.
func newRecord(cl *Cluster) *queryRec {
	shards := len(cl.shards)
	rec := &queryRec{
		outs:    make([]shardOut, shards),
		ms:      make([]perf.Metrics, shards),
		plans:   make([]planBuf, shards),
		bufs:    make([]core.DocBuf, shards),
		ids:     make([][]uint32, shards),
		pos:     make([][]int, shards),
		payload: make([][]byte, shards),
		flens:   make([][]int, shards),
		cl:      cl,
	}
	rec.sweepFn = rec.sweepShard
	return rec
}

// sweepShard is one shard of the sweep in flight.
//
//boss:hotpath once per (query, shard).
func (rec *queryRec) sweepShard(si int) {
	rec.outs[si] = rec.cl.runShard(rec.ctx, rec.work, si, rec.mask)
}

// sizeSlab readies the slab for a search of depth k.
func (rec *queryRec) sizeSlab(k int) {
	if n := len(rec.outs) * k; cap(rec.slab) < n {
		rec.slab = make([]topk.Entry, n)
	}
}

// region is shard si's slab region at depth k: empty, with room for exactly
// k entries, so an Exec that appends its top-k there never reaches a
// neighbour's region or allocates.
func (rec *queryRec) region(si, k int) []topk.Entry {
	lo := si * k
	return rec.slab[lo : lo : lo+k]
}

// reset readies rec for the next request: it drops every reference the last
// one left (outcomes with their errors and any hedged attempt's storage,
// narrowed plans aliasing its prepared query) and truncates the routing,
// keeping each backing array. The metrics records, the slab and the fetch
// payload scratch hold plain values that every use overwrites. A non-nil
// poison then gets the record.
func (rec *queryRec) reset(poison func(*queryRec)) {
	clear(rec.outs)
	for si := range rec.plans {
		rec.plans[si].reset()
		rec.ids[si], rec.pos[si] = rec.ids[si][:0], rec.pos[si][:0]
	}
	rec.hits = rec.hits[:0]
	if poison != nil {
		poison(rec)
	}
}

// mergeTopK fills dst with the best len(dst) entries of the shards' top-k
// lists, in global docIDs: a k-way merge of the root. Each list is its
// shard's top-k in rank order (topk.Less: score descending, then docID
// ascending), and adding the shard's offset maps its docIDs to global ones
// without reordering them; so the best of the lists' heads is the best entry
// left, and dst comes out exactly as one selector offered every entry would
// rank it. Failed shards and shards with no part in the answer have empty
// lists; len(dst) must not exceed the lists' total. The lists are consumed.
//
//boss:hotpath once per search: the root's merge.
func mergeTopK(dst []topk.Entry, outs []shardOut, offsets []uint32) []topk.Entry {
	for i := range dst {
		best := -1
		var head topk.Entry
		for si := range outs {
			l := outs[si].topk
			if len(l) == 0 {
				continue
			}
			if e := (topk.Entry{DocID: l[0].DocID + offsets[si], Score: l[0].Score}); best < 0 || topk.Less(e, head) {
				best, head = si, e
			}
		}
		dst[i] = head
		outs[best].topk = outs[best].topk[1:]
	}
	return dst
}
