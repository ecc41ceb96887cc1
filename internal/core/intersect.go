package core

import (
	"boss/internal/index"
	"boss/internal/mem"
	"boss/internal/sim"
)

// Spill-stall bandwidths for the SpillIntermediates ablation (the paper's
// Table I SCM figures; the ablation models an IIU-style design point on the
// same device).
const (
	scmWriteGBs   = 9.2
	scmSeqReadGBs = 25.6
)

// intersect runs the pipelined intersection path over a conjunction of
// posting lists: Small-versus-Small ordering, mutual block-overlap checking
// in the block-fetch module, and iterative passes whose intermediate
// results stay on-chip (no memory spills — the paper's key difference from
// IIU). Returns the matched documents with per-term postings, sorted by
// docID.
func (r *run) intersect(pls []*index.PostingList) []match {
	if cap(r.ordScratch) < len(pls) {
		r.ordScratch = make([]*index.PostingList, len(pls))
	}
	ordered := r.ordScratch[:0]
	ordered = append(ordered, pls...)
	// Stable insertion sort by DF: conjuncts hold at most MaxQueryTerms
	// lists, and — unlike sort.SliceStable — this never allocates.
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && ordered[j].DF < ordered[j-1].DF; j-- {
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}

	if len(ordered) == 1 {
		return r.scanList(ordered[0])
	}
	out := r.firstPass(ordered[0], ordered[1])
	for _, pl := range ordered[2:] {
		if len(out) == 0 || r.err != nil {
			return out
		}
		if r.acc.opts.SpillIntermediates {
			// Ablation: round-trip the intermediate through memory instead
			// of feeding it back through the on-chip pipeline. The spill
			// serializes the passes — the next pass cannot start until the
			// store completes and the reload returns — so the round trip
			// is charged as non-overlapped time on top of the traffic.
			bytes := int64(len(out)) * resultEntryBytes
			r.m.AddWrite(bytes, mem.CatStoreInter)
			r.m.AddSeqRead(bytes, mem.CatLoadInter)
			r.m.SerialFetchHops += 2 // store drain + reload latency
			stall := sim.FromSeconds(float64(bytes)/(scmWriteGBs*1e9) +
				float64(bytes)/(scmSeqReadGBs*1e9))
			r.m.AddCompute(stall)
		}
		out = r.nextPass(out, pl)
	}
	return out
}

// scanList streams one whole posting list (a single-term conjunct inside a
// mixed query).
func (r *run) scanList(pl *index.PostingList) []match {
	bi, out := r.grabMatchBuf()
	ls := r.stateFor(pl)
	var mc int64
	for b := range pl.Blocks {
		bd := r.fetchBlock(ls, pl, b)
		if bd == nil {
			break // r.err latched; unwind with what we have
		}
		for i := range bd.docs {
			mc++
			terms := r.allocTerms(1)
			terms = append(terms, termTF{pl: pl, tf: bd.tfs[i]})
			out = append(out, match{doc: bd.docs[i], terms: terms})
		}
	}
	r.mergeCycles += float64(mc)
	r.putMatchBuf(bi, out)
	return out
}

// firstPass intersects two posting lists with mutual block-overlap
// checking: a block loads only if its docID range overlaps the other
// list's current block (Figure 5(a)).
func (r *run) firstPass(a, b *index.PostingList) []match {
	bufI, out := r.grabMatchBuf()
	lsA, lsB := r.stateFor(a), r.stateFor(b)
	i, j := 0, 0
	var A, B *blockData
	posA, posB := 0, 0
	metaA, metaB := -1, -1 // last block charged per list (chargeMeta memo)
	var mc int64
	for i < len(a.Blocks) && j < len(b.Blocks) {
		am, bm := &a.Blocks[i], &b.Blocks[j]
		if i != metaA {
			r.chargeMeta(lsA, i)
			metaA = i
		}
		if j != metaB {
			r.chargeMeta(lsB, j)
			metaB = j
		}
		if am.LastDoc < bm.FirstDoc {
			if A == nil {
				r.m.BlocksSkipped++
			}
			i++
			A, posA = nil, 0
			continue
		}
		if bm.LastDoc < am.FirstDoc {
			if B == nil {
				r.m.BlocksSkipped++
			}
			j++
			B, posB = nil, 0
			continue
		}
		if A == nil {
			if A = r.fetchBlock(lsA, a, i); A == nil {
				break // r.err latched
			}
		}
		if B == nil {
			if B = r.fetchBlock(lsB, b, j); B == nil {
				break // r.err latched
			}
		}
		for posA < len(A.docs) && posB < len(B.docs) {
			mc++
			da, db := A.docs[posA], B.docs[posB]
			switch {
			case da < db:
				posA++
			case da > db:
				posB++
			default:
				terms := r.allocTerms(2)
				terms = append(terms, termTF{pl: a, tf: A.tfs[posA]}, termTF{pl: b, tf: B.tfs[posB]})
				out = append(out, match{doc: da, terms: terms})
				posA++
				posB++
			}
		}
		if posA >= len(A.docs) {
			i++
			A, posA = nil, 0
		}
		if posB >= len(B.docs) {
			j++
			B, posB = nil, 0
		}
	}
	r.mergeCycles += float64(mc)
	r.putMatchBuf(bufI, out)
	return out
}

// nextPass intersects the on-chip intermediate result with the next posting
// list: intermediate docIDs feed the block-fetch module, which loads only
// blocks containing at least one candidate (Figure 5(b)).
func (r *run) nextPass(candidates []match, c *index.PostingList) []match {
	// Surviving matches compact in place over the candidate slice: at most
	// one match is written per candidate consumed, and the range loop copies
	// each candidate out before the write can land on it.
	out := candidates[:0]
	lsC := r.stateFor(c)
	ci := 0
	var C *blockData
	posC := 0
	metaC := -1 // last block charged (chargeMeta memo)
	var mc int64
	for _, cand := range candidates {
		for ci < len(c.Blocks) {
			if ci != metaC {
				r.chargeMeta(lsC, ci)
				metaC = ci
			}
			if c.Blocks[ci].LastDoc >= cand.doc {
				break
			}
			if C == nil {
				r.m.BlocksSkipped++
			}
			ci++
			C, posC = nil, 0
		}
		if ci >= len(c.Blocks) {
			break
		}
		if c.Blocks[ci].FirstDoc > cand.doc {
			continue // candidate falls in a gap: not in the list
		}
		if C == nil {
			if C = r.fetchBlock(lsC, c, ci); C == nil {
				break // r.err latched
			}
		}
		for posC < len(C.docs) && C.docs[posC] < cand.doc {
			posC++
			mc++
		}
		mc++
		if posC < len(C.docs) && C.docs[posC] == cand.doc {
			terms := r.allocTerms(len(cand.terms) + 1)
			terms = append(terms, cand.terms...)
			terms = append(terms, termTF{pl: c, tf: C.tfs[posC]})
			out = append(out, match{doc: cand.doc, terms: terms})
		}
	}
	r.mergeCycles += float64(mc)
	return out
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
		r.conjOut = append(r.conjOut, r.intersect(r.conjunct(i)))
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
	r.mergeConjuncts(r.conjOut)
}

// mergeConjuncts merges sorted conjunct outputs by docID, de-duplicating
// term contributions so a document matched by several conjuncts is scored
// once with each distinct term. Merged documents are scored as they emerge
// (docID order, same as a materialize-then-scoreAll pass) so the merge
// never allocates a combined match list.
func (r *run) mergeConjuncts(lists [][]match) {
	if cap(r.mergePos) < len(lists) {
		r.mergePos = make([]int, len(lists))
	}
	pos := r.mergePos[:len(lists)]
	for i := range pos {
		pos[i] = 0
	}
	var mc int64
	for {
		best := -1
		var bestDoc uint32
		for i, l := range lists {
			if pos[i] >= len(l) {
				continue
			}
			if d := l[pos[i]].doc; best < 0 || d < bestDoc {
				best, bestDoc = i, d
			}
		}
		if best < 0 {
			r.mergeCycles += float64(mc)
			return
		}
		terms := r.terms[:0]
		for i, l := range lists {
			if pos[i] < len(l) && l[pos[i]].doc == bestDoc {
				for _, tt := range l[pos[i]].terms {
					if !hasTerm(terms, tt.pl) {
						terms = append(terms, tt)
					}
				}
				pos[i]++
				mc++
			}
		}
		r.terms = terms
		r.scoreDoc(bestDoc, terms)
	}
}

func hasTerm(terms []termTF, pl *index.PostingList) bool {
	for _, t := range terms {
		if t.pl == pl {
			return true
		}
	}
	return false
}
