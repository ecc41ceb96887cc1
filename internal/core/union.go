package core

import (
	"math"

	"boss/internal/index"
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
		streams = append(streams, &cs[i])
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

		r.scanInterval(covering, lo, hi)
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
// document loop over [lo, hi]: WAND pivoting when DocET is enabled, a plain
// k-way merge otherwise.
//
//boss:hotpath one call per interval; loops once per union-module decision.
func (r *run) scanInterval(covering []*cursor, lo, hi uint32) {
	for _, s := range covering {
		if !s.loaded {
			if !r.load(s) {
				return // r.err latched; union loop unwinds
			}
			s.seekGE(uint64(s.floor))
		}
	}

	for {
		active := r.active[:0]
		for _, s := range covering {
			if s.cur <= uint64(hi) {
				active = append(active, s)
			}
		}
		r.active = active
		if len(active) == 0 {
			return
		}
		// One union-module decision per iteration: the sorter orders sIDs,
		// then the pivot selector / merger issues its verdict.
		r.mergeCycles += 1.5

		if r.acc.opts.DocET && r.sel.Full() {
			if !r.wandStep(active, hi) {
				return
			}
			continue
		}
		r.mergeStep(active)
	}
}

// mergeStep performs one plain k-way merge step: score the smallest
// document across active streams.
//
//boss:hotpath one call per merged document.
func (r *run) mergeStep(active []*cursor) {
	minDoc := active[0].cur
	for _, s := range active[1:] {
		if s.cur < minDoc {
			minDoc = s.cur
		}
	}
	terms := r.terms[:0]
	for _, s := range active {
		if s.cur == minDoc {
			terms = append(terms, termTF{pl: s.pl, tf: s.tfs[s.pos]})
			s.seek(s.pos + 1)
		}
	}
	r.terms = terms
	r.scoreDoc(uint32(minDoc), terms)
}

// wandStep performs one WAND decision: pick the pivot by accumulating
// list-level maximum scores in docID order; documents before the pivot
// cannot beat the cutoff and are popped without scoring. Returns false when
// the whole remaining interval is hopeless.
//
//boss:hotpath one call per WAND decision.
func (r *run) wandStep(active []*cursor, hi uint32) bool {
	sortByDoc(active)
	cutoff := r.cutoff()
	acc := 0.0
	pivot := -1
	for i, s := range active {
		acc += s.pl.MaxScore
		// >= rather than >: documents tying the cutoff must still be
		// scored so tie-breaking stays identical to exhaustive execution.
		if acc >= cutoff {
			pivot = i
			break
		}
	}
	if pivot < 0 {
		// Even all lists together cannot beat the cutoff: drain the
		// interval without scoring anything.
		var mc int
		for _, s := range active {
			mc += s.seekGE(uint64(hi) + 1)
		}
		r.mergeCycles += float64(mc)
		return false
	}
	pivotDoc := active[pivot].cur
	if active[0].cur == pivotDoc {
		// Every stream before the pivot sits on the pivot document: score
		// it with all matching streams. Matching streams are collected in
		// query order so floating-point summation matches the exhaustive
		// path bit for bit.
		matched := r.matched[:0]
		for _, s := range active {
			if s.cur == pivotDoc {
				matched = append(matched, s)
			}
		}
		r.matched = matched
		sortByOrd(matched)
		terms := r.terms[:0]
		for _, s := range matched {
			terms = append(terms, termTF{pl: s.pl, tf: s.tfs[s.pos]})
			s.seek(s.pos + 1)
		}
		r.terms = terms
		r.scoreDoc(uint32(pivotDoc), terms)
		return true
	}
	// Otherwise pop documents below the pivot — they cannot win.
	var mc int
	for _, s := range active[:pivot] {
		mc += s.seekGE(pivotDoc)
	}
	r.mergeCycles += float64(mc)
	return true
}

// sortByDoc insertion-sorts streams by current docID. Hardware queries hold
// at most MaxQueryTerms streams, and the union module's sorter runs every
// WAND step, so this stays O(small²) and — unlike sort.Slice — alloc-free.
//
//boss:hotpath called once per WAND step.
func sortByDoc(ss []*cursor) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j].cur < ss[j-1].cur; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// sortByOrd insertion-sorts streams by query position (see sortByDoc).
//
//boss:hotpath called once per scored pivot document.
func sortByOrd(ss []*cursor) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j].ord < ss[j-1].ord; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}
