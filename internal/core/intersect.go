package core

import (
	"boss/internal/index"
	"boss/internal/mem"
	"boss/internal/score"
	"boss/internal/sim"
)

// Spill-stall bandwidths for the SpillIntermediates ablation (the paper's
// Table I SCM figures; the ablation models an IIU-style design point on the
// same device).
const (
	scmWriteGBs   = 9.2
	scmSeqReadGBs = 25.6
)

// The intersection module streams two lists through a comparator at one
// posting per cycle and keeps the intermediate result on chip. That is what
// the passes below charge; it is not what the host does. Blocks are examined,
// skipped and loaded through the cursor (visit, advanceBlock, load) at the
// points the module's block-fetch logic decides them, and inside a block the
// host searches where the module steps: the merge cycles of a stretch are the
// postings both cursors passed, less the matches (a match moves both in one
// cycle), so any search that lands the cursors where the stepper would leaves
// the same positions and the same charge — the position-delta argument of
// cursor. Charges are sums of integers far below 2^53, flushed once per pass.

// conjRows locates one conjunct's output in the run's candidate table: rows
// candDocs[lo:hi], row k's n tfs at candTFs[tf+k*n:].
type conjRows struct{ lo, hi, tf, n int }

// intersect runs the pipelined intersection path over a conjunction of
// posting lists: Small-versus-Small ordering, mutual block-overlap checking
// in the block-fetch module, and iterative passes whose intermediate
// results stay on-chip (no memory spills — the paper's key difference from
// IIU). The matched documents, sorted by docID, each with one tf per list,
// are appended to the candidate table and located by a new entry of r.conj.
// pls is left in pass order, which is the table's slot order.
func (r *run) intersect(pls []*index.PostingList) {
	// Stable insertion sort by DF: conjuncts hold at most query.MaxTerms
	// lists, and — unlike sort.SliceStable — this never allocates.
	for i := 1; i < len(pls); i++ {
		for j := i; j > 0 && pls[j].DF < pls[j-1].DF; j-- {
			pls[j], pls[j-1] = pls[j-1], pls[j]
		}
	}
	n := len(pls)
	cs := r.openCursors(pls)
	out := conjRows{lo: len(r.candDocs), tf: len(r.candTFs), n: n}
	if n == 1 {
		r.streamPass(&cs[0])
	} else {
		r.pairPass(&cs[0], &cs[1], n)
	}
	for t := 2; t < n; t++ {
		rows := len(r.candDocs) - out.lo
		if rows == 0 || r.err != nil {
			break
		}
		if r.acc.opts.SpillIntermediates {
			// Ablation: round-trip the intermediate through memory instead
			// of feeding it back through the on-chip pipeline. The spill
			// serializes the passes — the next pass cannot start until the
			// store completes and the reload returns — so the round trip
			// is charged as non-overlapped time on top of the traffic.
			bytes := int64(rows) * resultEntryBytes
			r.m.AddWrite(bytes, mem.CatStoreInter)
			r.m.AddSeqRead(bytes, mem.CatLoadInter)
			r.m.SerialFetchHops += 2 // store drain + reload latency
			stall := sim.FromSeconds(float64(bytes)/(scmWriteGBs*1e9) +
				float64(bytes)/(scmSeqReadGBs*1e9))
			r.m.AddCompute(stall)
		}
		r.probePass(&cs[t], out, t)
	}
	out.hi = len(r.candDocs)
	r.conj = append(r.conj, out)
}

// streamPass streams one whole posting list into the candidate table (a
// single-term conjunct inside a mixed query): two block appends, 8 bytes a
// posting, one cycle each.
//
//boss:hotpath one iteration per block of a single-term conjunct.
func (r *run) streamPass(c *cursor) {
	var mc int64
	for c.curBlock() != nil {
		r.visit(c)
		if !r.load(c) {
			break // r.err latched; unwind with what we have
		}
		r.candDocs = append(r.candDocs, c.docs...)
		r.candTFs = append(r.candTFs, c.tfs...)
		mc += int64(len(c.docs))
		r.advanceBlock(c)
	}
	r.mergeCycles += float64(mc)
}

// pairPass intersects two posting lists with mutual block-overlap checking:
// a block loads only if its docID range overlaps the other list's current
// block (Figure 5(a)). a is the shorter list. Matches become rows of n slots,
// the first two filled.
//
//boss:hotpath one iteration per block either cursor leaves.
func (r *run) pairPass(a, b *cursor, n int) {
	var mc int64
	for {
		am, bm := a.curBlock(), b.curBlock()
		if am == nil || bm == nil {
			break
		}
		r.visit(a)
		r.visit(b)
		if am.LastDoc < bm.FirstDoc {
			r.advanceBlock(a)
			continue
		}
		if bm.LastDoc < am.FirstDoc {
			r.advanceBlock(b)
			continue
		}
		if !a.loaded && !r.load(a) {
			break // r.err latched
		}
		if !b.loaded && !r.load(b) {
			break // r.err latched
		}
		mc += r.pairBlocks(a, b, n)
		if a.cur == noDoc {
			r.advanceBlock(a)
		}
		if b.cur == noDoc {
			r.advanceBlock(b)
		}
	}
	r.mergeCycles += float64(mc)
}

// pairBlocks intersects the loaded blocks under a and b from the cursors'
// positions until either block is consumed, appends a row per match, and
// returns the comparator's cycles. The comparator consumes one posting of
// the list whose head is smaller per cycle, or one of each on a match, so it
// stops with one block consumed and the other cursor past every posting at
// or below that block's last docID. The loop drives a's postings and lands
// b's cursor on each with an in-block search — past the block's end at once
// when a's posting lies beyond b's last decoded docID — which ends in that
// same state: the cycles are the two position deltas less the matches.
//
//boss:hotpath one call per overlapping block pair; loops once per posting of the shorter list.
func (r *run) pairBlocks(a, b *cursor, n int) int64 {
	docs, tfs := r.candDocs, r.candTFs
	ad, bd := a.docs, b.docs
	pa, pb, before := a.pos, b.pos, len(docs)
	var lastB uint32
	if len(bd) > 0 {
		lastB = bd[len(bd)-1]
	}
	for pa < len(ad) && pb < len(bd) {
		da := ad[pa]
		if da > lastB {
			pb = len(bd)
			break
		}
		if bd[pb] < da {
			// Lands inside the block, sorted or not: the search returns
			// len(bd) only after reading bd's last docID below da.
			pb = gallopGE(bd, pb, uint64(da))
		}
		if bd[pb] == da {
			docs = append(docs, da)
			tfs = append(tfs, a.tfs[pa], b.tfs[pb])
			for t := 2; t < n; t++ {
				tfs = append(tfs, 0) // the later passes' slots
			}
			pb++
		}
		pa++
	}
	cycles := (pa - a.pos) + (pb - b.pos) - (len(docs) - before)
	a.seek(pa)
	b.seek(pb)
	r.candDocs, r.candTFs = docs, tfs
	return int64(cycles)
}

// probePass intersects the on-chip intermediate result — the rows of out —
// with the conjunct's t-th posting list: intermediate docIDs feed the
// block-fetch module, which loads only blocks containing at least one
// candidate (Figure 5(b)). Surviving rows gain slot t and compact in place
// (a row is written at or below where it was read). A candidate that reaches
// a loaded block costs the postings the cursor passes to reach it plus the
// comparison itself; the cursor stays on a match.
//
//boss:hotpath one iteration per candidate of a later pass.
func (r *run) probePass(c *cursor, out conjRows, t int) {
	n := out.n
	docs, tfs := r.candDocs[out.lo:], r.candTFs[out.tf:]
	w := 0
	var mc int64
	for k, d := range docs {
		blk := c.curBlock()
		for blk != nil {
			r.visit(c)
			if blk.LastDoc >= d {
				break
			}
			r.advanceBlock(c)
			blk = c.curBlock()
		}
		if blk == nil {
			break
		}
		if blk.FirstDoc > d {
			continue // candidate falls in a gap: not in the list
		}
		if !c.loaded && !r.load(c) {
			break // r.err latched
		}
		mc += int64(c.seekGE(uint64(d))) + 1
		if c.cur != uint64(d) {
			continue
		}
		if w != k {
			docs[w] = d
			copy(tfs[w*n:w*n+t], tfs[k*n:k*n+t])
		}
		tfs[w*n+t] = c.tfs[c.pos]
		w++
	}
	r.mergeCycles += float64(mc)
	r.candDocs, r.candTFs = r.candDocs[:out.lo+w], r.candTFs[:out.tf+w*n]
}

// slot is what scoring needs of one planned list: its IDF in both
// arithmetics (idfQ is rounded once per query, and only when the run scores
// in Q16.16) and its index in run.distinct, the mixed merge's dedup key.
type slot struct {
	idf  float64
	idfQ score.Fixed
	list int
}

// scoreSlots fills the run's slot scratch, index-parallel to planLists —
// which intersect left, conjunct by conjunct, in the candidate rows' slot
// order.
func (r *run) scoreSlots() []slot {
	slots := r.slots[:0]
	for _, pl := range r.planLists {
		s := slot{idf: pl.IDF}
		if r.acc.opts.FixedPoint {
			s.idfQ = score.ToFixed(pl.IDF)
		}
		for r.distinct[s.list] != pl {
			s.list++
		}
		slots = append(slots, s)
	}
	r.slots = slots
	return slots
}

// scoreConjunct scores a pure conjunction's candidate table in docID order:
// BM25 inline, each row's term scores added in slot order — stable DF order,
// every occurrence of a repeated term counted — from one normalizer load per
// document.
//
//boss:hotpath one iteration per matched document of a conjunction.
func (r *run) scoreConjunct() {
	slots := r.scoreSlots()
	n := len(slots)
	idx, sel := r.acc.idx, r.sel
	params, norms, fixed := idx.Params, idx.DocNorms, r.acc.opts.FixedPoint
	tfs := r.candTFs
	for k, doc := range r.candDocs {
		row := tfs[k*n : k*n+n]
		sum := 0.0
		if norm := norms[doc]; fixed {
			normQ := score.ToFixed(norm)
			for t, tf := range row {
				sum += params.FixedTermScore(slots[t].idfQ, tf, normQ).Float()
			}
		} else {
			for t, tf := range row {
				sum += params.TermScore(slots[t].idf, tf, norm)
			}
		}
		sel.Insert(doc, sum)
	}
	docs := int64(len(r.candDocs))
	r.chargeScored(docs, docs*int64(n))
}

// mixed executes the planned mixed query as the paper prescribes:
// intersections first (one pipelined intersection per DNF conjunct, all
// sharing the block cache so common terms load once), then an on-chip union
// of the conjunct outputs with per-term de-duplication, then scoring and
// top-k.
func (r *run) mixed() {
	var maxMerge float64
	for i := range r.planEnd {
		before := r.mergeCycles
		r.intersect(r.conjunct(i))
		// The intersection module's three units run conjuncts
		// concurrently: the slowest one bounds the stage.
		delta := r.mergeCycles - before
		r.mergeCycles = before
		if delta > maxMerge {
			maxMerge = delta
		}
		if r.err != nil {
			return // failed query: skip the union of partial outputs
		}
	}
	r.mergeCycles += maxMerge
	r.unionConjuncts()
}

// unionConjuncts merges the sorted conjunct outputs by docID and scores each
// merged document as it emerges (docID order), one merger cycle per conjunct
// row consumed. A document matched by several conjuncts is scored once with
// each distinct term: its term scores add conjunct by conjunct, slot by slot,
// skipping a list already added for this document — seen[list] holds the
// last document the list was added to.
//
//boss:hotpath one iteration per merged document of a mixed query.
func (r *run) unionConjuncts() {
	slots := r.scoreSlots()
	seen := r.seen[:0]
	for range r.distinct {
		seen = append(seen, noDoc)
	}
	r.seen = seen
	idx, sel := r.acc.idx, r.sel
	params, norms, fixed := idx.Params, idx.DocNorms, r.acc.opts.FixedPoint
	cdocs, ctfs, conj := r.candDocs, r.candTFs, r.conj
	var mc, docs, ops int64
	for {
		// conj[i].lo and .tf are conjunct i's head: its next unmerged row.
		next := noDoc
		for i := range conj {
			if c := &conj[i]; c.lo < c.hi && uint64(cdocs[c.lo]) < next {
				next = uint64(cdocs[c.lo])
			}
		}
		if next == noDoc {
			break
		}
		doc := uint32(next)
		norm := norms[doc]
		normQ := score.Fixed(0)
		if fixed {
			normQ = score.ToFixed(norm)
		}
		sum, slot0 := 0.0, 0
		for i := range conj {
			c := &conj[i]
			if c.lo < c.hi && cdocs[c.lo] == doc {
				for t, tf := range ctfs[c.tf : c.tf+c.n] {
					s := &slots[slot0+t]
					if seen[s.list] == next {
						continue
					}
					seen[s.list] = next
					if fixed {
						sum += params.FixedTermScore(s.idfQ, tf, normQ).Float()
					} else {
						sum += params.TermScore(s.idf, tf, norm)
					}
					ops++
				}
				c.lo++
				c.tf += c.n
				mc++
			}
			slot0 += c.n
		}
		docs++
		sel.Insert(doc, sum)
	}
	r.mergeCycles += float64(mc)
	r.chargeScored(docs, ops)
}
