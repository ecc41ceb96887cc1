package core

import (
	"math"

	"boss/internal/index"
	"boss/internal/score"
)

// normalize discards blocks wholly below the stream's floor and positions
// the cursor at the first un-pruned posting. Returns false when exhausted.
//
//boss:hotpath called once per stream per interval.
func (r *run) normalize(s *cursor) bool {
	for {
		blk := s.curBlock()
		if blk == nil {
			return false
		}
		r.visit(s)
		if s.floor > blk.LastDoc {
			r.advanceBlock(s)
			continue
		}
		if s.loaded {
			s.seekGE(uint64(s.floor)) // pruned by the block fetch module: no merger cycles
			if s.cur == noDoc {
				r.advanceBlock(s)
				continue
			}
		}
		return true
	}
}

// nextDoc reports the smallest docID the (normalized) stream might produce
// next.
func (s *cursor) nextDoc() uint32 {
	if s.loaded {
		return uint32(s.cur)
	}
	first := s.curBlock().FirstDoc
	if s.floor > first {
		return s.floor
	}
	return first
}

// union runs the union path: an interval sweep with block-level early
// termination (the block-fetch module's score-estimation unit) feeding the
// WAND union module, scoring, and top-k.
//
//boss:hotpath the union-path driver loop; scratch lives on the run record.
func (r *run) union(pls []*index.PostingList) {
	// The cursors live in run-owned scratch that resizes only in
	// openCursors, so the pointers below stay valid throughout.
	cs := r.openCursors(pls)
	streams := r.streams[:0]
	for i := range cs {
		c := &cs[i]
		c.ub, c.idf = c.pl.MaxScore, c.pl.IDF
		if r.acc.opts.FixedPoint {
			c.idfQ = score.ToFixed(c.idf)
		}
		streams = append(streams, c)
	}
	r.streams = streams // keep the grown capacity for the next query
	for {
		// Keep only live streams, positioned past their floors.
		live := streams[:0]
		for _, s := range streams {
			if r.normalize(s) {
				live = append(live, s)
			}
		}
		streams = live
		if len(streams) == 0 {
			return
		}

		// The interval starts at the smallest upcoming docID.
		lo := streams[0].nextDoc()
		for _, s := range streams[1:] {
			if d := s.nextDoc(); d < lo {
				lo = d
			}
		}
		// It ends where the covering-block set changes.
		hi := uint32(math.MaxUint32)
		covering := r.covering[:0]
		var ub float64
		for _, s := range streams {
			blk := s.curBlock()
			if blk.FirstDoc <= lo {
				covering = append(covering, s)
				ub += blk.MaxScore
				if blk.LastDoc < hi {
					hi = blk.LastDoc
				}
			} else if blk.FirstDoc-1 < hi {
				hi = blk.FirstDoc - 1
			}
		}
		r.covering = covering // keep the grown capacity for the next interval

		// Block-level ET: if even the sum of the covering blocks' maximum
		// term-scores cannot beat the cutoff, no document in the interval
		// can enter the top-k — skip without loading. The comparison is
		// strict so score ties (resolved toward smaller docIDs by the
		// top-k module) are never pruned.
		if r.acc.opts.BlockET && r.sel.Full() && ub < r.cutoff() {
			for _, s := range covering {
				if s.curBlock().LastDoc <= hi {
					r.advanceBlock(s)
				} else {
					s.floor = hi + 1
				}
			}
			continue
		}

		r.scanInterval(covering, hi)
		if r.err != nil {
			return
		}

		// Streams whose block ended inside the interval move on.
		for _, s := range covering {
			if s.loaded && s.cur == noDoc {
				r.advanceBlock(s)
			}
		}
	}
}

// scanInterval loads the covering blocks and runs the union module's
// document loop over the interval that ends at hi.
//
// The loop's state is the frontier: the covering cursors still standing
// inside the interval, kept sorted by (cur, ord) — the order the module's
// sorter holds its stream heads in. Each iteration is one decision of the
// module. The pivot selector adds the lists' score bounds in frontier order
// until they reach the cutoff; the cursor it stops on is the pivot. If the
// frontier's head already stands on the pivot's document, the leading run of
// cursors on that document is scored; otherwise the cursors before the pivot
// cannot win and are popped up to it; with no pivot at all the rest of the
// interval is hopeless and every cursor drains past hi. While the top-k
// still has room, and always with DocET off, the cutoff is -Inf, the pivot is
// the frontier's head, and the same loop is a plain k-way merge.
//
// Two properties of the order carry the exactness. A stable sort by cur of
// the query-ordered streams — what the loop used to redo on every decision —
// is the (cur, ord) order, so the bounds add up in the same sequence and
// pick the same pivot bit for bit. And the run of cursors on one document is
// a prefix already in query order, so its term scores add in the order the
// exhaustive path adds them. Only cursors a decision moved are re-inserted
// (they only move right), and the ones that left the interval fall off the
// tail. A frontier of one cursor, two decisions in three on the served
// workloads, runs as a straight loop over its block.
//
// Charges are tallied in locals and flushed once: sums of integers and
// multiples of 0.5 far below 2^53, so exactly what per-decision increments
// added up to (see cursor). Blocks are loaded here, on entry, and advanced
// by the caller, as before, so the blocks examined and fetched cannot change.
//
//boss:hotpath one call per interval; loops once per union-module decision.
func (r *run) scanInterval(covering []*cursor, hi uint32) {
	f := r.frontier[:0]
	for _, s := range covering {
		if !s.loaded {
			if !r.load(s) {
				return // r.err latched; union loop unwinds
			}
			s.seekGE(uint64(s.floor)) // pruned by the block fetch module: no merger cycles
		}
		if s.cur > uint64(hi) {
			continue
		}
		// covering is in query order, so inserting behind every cursor at
		// or before s.cur keeps ties in ord order.
		j := len(f)
		f = append(f, s)
		for ; j > 0 && f[j-1].cur > s.cur; j-- {
			f[j] = f[j-1]
		}
		f[j] = s
	}
	r.frontier = f // keep the grown capacity for the next interval

	idx, sel := r.acc.idx, r.sel
	params, norms, fixed := idx.Params, idx.DocNorms, r.acc.opts.FixedPoint
	docET := r.acc.opts.DocET
	// Threshold is -Inf until the top-k fills, so WAND engages by itself.
	cutoff := math.Inf(-1)
	if docET {
		cutoff = sel.Threshold()
	}
	var decisions, passed, docs, ops int64

	n := len(f)
	for n > 1 {
		decisions++
		// >= rather than >: documents tying the cutoff must still be scored
		// so tie-breaking stays identical to exhaustive execution.
		acc, p := 0.0, 0
		for ; p < n; p++ {
			if acc += f[p].ub; acc >= cutoff {
				break
			}
		}
		if p == n {
			for _, c := range f[:n] {
				passed += int64(c.seekGE(uint64(hi) + 1))
			}
			n = 0
			break
		}
		doc := f[p].cur
		moved := p // cursors f[:moved] were advanced by this decision
		if f[0].cur == doc {
			norm := norms[doc]
			sum := 0.0
			for moved = 0; moved < n && f[moved].cur == doc; moved++ {
				c := f[moved]
				if tf := c.tfs[c.pos]; fixed {
					sum += params.FixedTermScore(c.idfQ, tf, score.ToFixed(norm)).Float()
				} else {
					sum += params.TermScore(c.idf, tf, norm)
				}
				c.seek(c.pos + 1)
			}
			docs++
			ops += int64(moved)
			sel.Insert(uint32(doc), sum)
			if docET {
				cutoff = sel.Threshold()
			}
		} else {
			for _, c := range f[:p] {
				passed += int64(c.seekGE(doc))
			}
		}
		// Restore the order: right to left, each moved cursor sinks into the
		// sorted run behind it. Cursors past hi (noDoc included) sink to the
		// tail and are cut off.
		for i := moved - 1; i >= 0; i-- {
			c, j := f[i], i
			for ; j+1 < n && (f[j+1].cur < c.cur || f[j+1].cur == c.cur && f[j+1].ord < c.ord); j++ {
				f[j] = f[j+1]
			}
			f[j] = c
		}
		for n > 0 && f[n-1].cur > uint64(hi) {
			n--
		}
	}
	if n == 1 {
		// One cursor left: every decision's pivot is that cursor (its bound
		// alone, 0 + ub, against the cutoff) and every score is its one term
		// (0 + x), both exact, so the block is walked in place.
		c := f[0]
		bdocs, btfs, pos := c.docs, c.tfs, c.pos
		hopeless := false
		for {
			decisions++
			if hopeless = !(c.ub >= cutoff); hopeless {
				break
			}
			doc := bdocs[pos]
			var s float64
			if norm := norms[doc]; fixed {
				s = params.FixedTermScore(c.idfQ, btfs[pos], score.ToFixed(norm)).Float()
			} else {
				s = params.TermScore(c.idf, btfs[pos], norm)
			}
			docs++
			ops++
			sel.Insert(doc, s)
			if docET {
				cutoff = sel.Threshold()
			}
			if pos++; pos == len(bdocs) || bdocs[pos] > hi {
				break
			}
		}
		c.seek(pos)
		if hopeless {
			passed += int64(c.seekGE(uint64(hi) + 1))
		}
	}

	// One sorter + pivot decision per 1.5 cycles, one cycle per posting the
	// merger passed; the scored documents' charges are chargeScored's.
	r.mergeCycles += 1.5*float64(decisions) + float64(passed)
	r.chargeScored(docs, ops)
}
