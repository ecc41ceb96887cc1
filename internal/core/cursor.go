package core

import (
	"boss/internal/index"
	"boss/internal/score"
)

// noDoc is cursor.cur when no posting is under the cursor: block not loaded,
// block consumed, or list exhausted. It exceeds every docID, so a minimum
// over cursors ignores it and no candidate ever equals it.
const noDoc = uint64(1) << 32

// cursor is one posting list's position inside an operator: the union
// module's interval sweep (union.go), the MaxScore driver (sparse.go) and the
// intersection passes (intersect.go). The current block's decoded slices and
// the docID under the cursor live in the record itself, so the per-posting
// loops compare c.cur and index c.docs without walking cursor → block record
// → slice header for every stream on every candidate.
//
// Cursors are model-neutral by construction. Which blocks a run examines and
// fetches is decided where it always was — load is called at the same
// logical points, never ahead of need — and the cycle tallies the operators
// keep (mergeCycles, scoreOps, fetchCycles, …) are sums of integers and
// multiples of 0.5 far below 2^53, so charging a position delta at once, or
// 1.5 × candidates at the end of a run, adds up to exactly what the
// one-at-a-time increments did, in any order.
type cursor struct {
	cur  uint64   // docs[pos], or noDoc; seek keeps it in step with pos
	docs []uint32 // current block, decoded; empty until loaded
	tfs  []uint32
	imps []byte // current block's impact codes (sparse only; aliases pl.Data)
	pos  int    // position within docs
	bi   int    // current block index

	charged int  // last block index charged via chargeMeta (memo)
	loaded  bool // docs/tfs hold block bi
	ord     int  // position in the query: the union frontier's tie-break

	// ub is the list-wide score bound both pruning operators accumulate: the
	// union's pl.MaxScore, the sparse driver's dequantized maximum impact.
	ub float64

	// Union only: the list's IDF in both arithmetics (idfQ is rounded once
	// per query, and only when the run scores in Q16.16), and the docID
	// below which interval skipping pruned the stream.
	idf   float64
	idfQ  score.Fixed
	floor uint32

	// Sparse only. A non-zero step also tells load to pick up the block's
	// impact codes.
	step   score.Fixed // the list's ImpactStep
	prefix float64     // cumulative ub of this and every lower-bound cursor
	wend   int         // past the last posting in the driver's window (essential lists)

	pl *index.PostingList
	ls *listState // the run's bookkeeping record for pl
}

// openCursors readies one cursor per posting list, in the given order, in the
// run's scratch. A mixed query opens them once per conjunct: the previous
// conjunct's are zeroed first, so releaseRun finds nothing beyond the last set.
func (r *run) openCursors(pls []*index.PostingList) []cursor {
	clear(r.cursors)
	if cap(r.cursors) < len(pls) {
		r.cursors = make([]cursor, len(pls))
	}
	r.cursors = r.cursors[:len(pls)]
	for i, pl := range pls {
		r.cursors[i] = cursor{cur: noDoc, charged: -1, ord: i, pl: pl, ls: r.stateFor(pl)}
	}
	return r.cursors
}

// seek moves the cursor to position p of its block and refreshes cur. It is
// the only code that writes pos.
//
//boss:hotpath one call per posting a cursor passes or matches.
func (c *cursor) seek(p int) {
	c.pos = p
	if p < len(c.docs) {
		c.cur = uint64(c.docs[p])
	} else {
		c.cur = noDoc
	}
}

// seekGE moves the cursor to the block's first posting at or beyond bound
// (the block's end if there is none) and returns how many postings it
// passed — the count the merger's one-posting-at-a-time scan makes, which is
// what callers charge.
//
//boss:hotpath the in-block skip of probes, WAND pops, floor pruning and intersection passes.
func (c *cursor) seekGE(bound uint64) int {
	if c.cur >= bound {
		return 0
	}
	from := c.pos
	c.seek(gallopGE(c.docs, from, bound))
	return c.pos - from
}

// gallopGE returns the first position beyond from whose docID is at or
// beyond bound, len(docs) if there is none; docs[from] must lie below bound.
// The search gallops, so a long skip costs its logarithm on the host.
//
//boss:hotpath seekGE's search, and the first intersection pass's by slice.
func gallopGE(docs []uint32, from int, bound uint64) int {
	// docs[lo] < bound; hi is the first position not known to be below it.
	lo, hi, step := from, from+1, 1
	for hi < len(docs) && uint64(docs[hi]) < bound {
		lo = hi
		step <<= 1
		hi += step
	}
	if hi > len(docs) {
		hi = len(docs)
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if uint64(docs[mid]) < bound {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// curBlock returns the cursor's current block metadata, or nil at the end.
//
//boss:hotpath one call per cursor per operator step.
func (c *cursor) curBlock() *index.BlockMeta {
	if c.bi >= len(c.pl.Blocks) {
		return nil
	}
	return &c.pl.Blocks[c.bi]
}

// spans reports whether d lies in the docID range the metadata gives the
// cursor's current block; the cursor must stand on a block.
//
//boss:hotpath the sparse driver's in-block probe test.
func (c *cursor) spans(d uint32) bool {
	blk := &c.pl.Blocks[c.bi]
	return blk.FirstDoc <= d && d <= blk.LastDoc
}

// visit charges the metadata read of the cursor's current block, once per
// block the cursor stands on.
//
//boss:hotpath one call per cursor per operator step.
func (r *run) visit(c *cursor) {
	if c.bi != c.charged {
		r.chargeMeta(c.ls, c.bi)
		c.charged = c.bi
	}
}

// load fetches and decodes the cursor's current block and stands the cursor
// on its first posting. On failure r.err is latched and load returns false.
//
//boss:hotpath one call per fetched block.
func (r *run) load(c *cursor) bool {
	docs, tfs, ok := r.fetchBlock(c.ls, c.pl, c.bi)
	if !ok {
		return false
	}
	c.docs, c.tfs, c.loaded = docs, tfs, true
	if c.step != 0 {
		c.imps = c.pl.BlockImpacts(c.bi)
	}
	c.seek(0)
	return true
}

// advanceBlock moves to the next block, counting a skip if the current one
// was never loaded.
//
//boss:hotpath one call per block a cursor leaves.
func (r *run) advanceBlock(c *cursor) {
	if !c.loaded {
		r.m.BlocksSkipped++
	}
	c.bi++
	c.docs, c.tfs, c.imps, c.loaded = nil, nil, nil, false
	c.seek(0)
}
