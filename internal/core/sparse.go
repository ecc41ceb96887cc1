package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"boss/internal/index"
	"boss/internal/perf"
	"boss/internal/score"
	"boss/internal/topk"
)

// The sparse-dot (Q7) family executes with the MaxScore pruning operator:
// posting lists are ordered by their dequantized list-wide maximum impact
// and split, against the running top-k threshold, into an essential set
// (streamed document-at-a-time; these drive candidate selection) and a
// non-essential set (probed per candidate, skipping via block metadata
// and per-block maximum impacts, often without fetching a single block).
// A document appearing only in non-essential lists can never beat the
// threshold, so candidates come from essential lists alone — that is the
// operator's entire savings, and it is exact: a candidate is abandoned
// only when a strict upper bound on its total score is below the cutoff,
// so the produced top-k is byte-identical to exhaustive evaluation.

// SparsePlan describes the essential/non-essential partition the MaxScore
// operator would choose for a sparse query at a given top-k threshold —
// the introspection cmd/bossquery prints. Terms are sorted by ascending
// list bound, the operator's working order.
type SparsePlan struct {
	Terms     []SparseTermInfo
	Essential int // Terms[Essential:] are essential at the given threshold
}

// SparseTermInfo is one term's entry in a SparsePlan.
type SparseTermInfo struct {
	Term      string
	MaxImpact float64 // dequantized list-wide maximum impact
	Prefix    float64 // cumulative bound of this and all lower-bound terms
}

// PlanSparse resolves a sparse query's terms and reports the MaxScore
// partition at the given threshold (use 0 for a cold top-k). Terms
// missing impacts or not indexed fail exactly as they do in Exec. The
// ranking and the partition are the operator's own (rankByBound,
// essentialFrom), over cursors that never load a block.
func (a *Accelerator) PlanSparse(terms []string, threshold float64) (*SparsePlan, error) {
	lists, err := a.resolveSparse(nil, terms)
	if err != nil {
		return nil, err
	}
	cs := make([]cursor, len(lists))
	for i, pl := range lists {
		cs[i].pl = pl
	}
	rankByBound(cs)
	infos := make([]SparseTermInfo, len(cs))
	for i := range cs {
		infos[i] = SparseTermInfo{Term: cs[i].pl.Term, MaxImpact: cs[i].ub, Prefix: cs[i].prefix}
	}
	return &SparsePlan{Terms: infos, Essential: essentialFrom(cs, 0, threshold)}, nil
}

// resolveSparse appends the sparse-query terms' impact-enabled posting lists
// to dst, checking each exists and carries impacts. It returns the grown dst
// on failure too, so a caller resolving into run scratch keeps — and
// releaseRun clears — what was appended.
func (a *Accelerator) resolveSparse(dst []*index.PostingList, terms []string) ([]*index.PostingList, error) {
	for _, t := range terms {
		pl := a.idx.List(t)
		if pl == nil {
			return dst, fmt.Errorf("core: term %q not indexed", t)
		}
		if !pl.HasImpacts() {
			return dst, fmt.Errorf("core: term %q: %w", t, ErrNoImpacts)
		}
		dst = append(dst, pl)
	}
	return dst, nil
}

// runSparse executes a sparse-dot query: resolve lists and drive the MaxScore
// operator. The result-traffic and compute charges are runDNF's (finish).
func (a *Accelerator) runSparse(ctx context.Context, terms []string, k int, m *perf.Metrics, dst []topk.Entry) ([]topk.Entry, error) {
	if ctx != nil {
		if cause := ctx.Err(); cause != nil {
			return dst, ctxError(cause)
		}
	}
	r := a.newRun(k, m)
	defer a.releaseRun(r)
	r.ctx = ctx
	// The terms are distinct, so the plan arena alone is the plan.
	var err error
	if r.planLists, err = a.resolveSparse(r.planLists, terms); err != nil {
		return dst, err
	}
	if len(r.planLists) > maxSparseLists {
		return dst, fmt.Errorf("core: sparse query over %d lists, more than %d", len(r.planLists), maxSparseLists)
	}
	r.nTerms = len(r.planLists)

	r.sparse(r.planLists)
	if r.err != nil {
		return dst, r.err
	}
	return r.finish(dst), nil
}

// sparseSpan is the widest docID window the sparse driver accumulates the
// essential lists over at once; it sizes the run record's window scratch.
const sparseSpan = 4096

// maxSparseLists bounds a sparse query's lists: the window counts a
// document's essential postings in a byte. query.Prepare already holds a
// query to query.MaxTerms, far below it.
const maxSparseLists = math.MaxUint8

// sparse runs the MaxScore driver loop over the query's posting lists, one
// cursor per list (the terms are distinct). With DocET off (the exhaustive
// ablation) every list stays essential and the loop degenerates to a full
// scoring merge — the comparison baseline for the pruning bench.
//
// The loop takes the essential lists a docID window at a time. A select pass
// reloads the essential cursors that consumed their block and opens the
// window [lo, hi] at the smallest docID under them; hi is sparseSpan − 1
// beyond lo or the earliest last decoded docID of an essential cursor's
// block, whichever is smaller, so no essential cursor runs out of block
// inside the window. Every essential posting in it is added into the run's
// window scratch — its dequantized impact into the document's Q16.16 sum,
// one into its count, its bit into the bitmap — and the set bits, walked in
// ascending docID, are the candidates: the docIDs a one-at-a-time merge of
// the essential cursors yields, each with the sum and the matched count that
// merge collects (integer additions commute).
//
// Each candidate runs the non-essential probes, the insert and, when the
// insert moved the top-k threshold — the only event that can change the
// partition — the re-partition. A partition change at d demotes the
// lowest-bound essential lists: each demoted cursor is stood on its first
// posting beyond d, where the merge leaves it, and its postings in (d, hi]
// are taken back out of the window, so later candidates carry only the
// essential lists' sums and a document no essential list still holds is no
// candidate. At the window's end the essential cursors seek past hi. A block
// can only run out there, so the next select pass reloads it after every
// partition up to hi — only if its list is still essential, and not at all
// if the run ended on ess == n — which is exactly the set and order of
// blocks loading at every candidate selection examines and fetches. The
// model's decisions (candidates, probes, inserts, partitions) thus happen at
// the same docIDs in the same order as in the one-at-a-time merge; only host
// work is batched. A run that leaves a window early (the ess == n stop, a
// failed fetch) clears the scratch first.
//
// The family reads its scores instead of computing them: a document's score
// is the sum of its postings' 8-bit impact codes, each dequantized by its
// list's step — pure integer arithmetic in Q16.16 (associative, so the sum is
// independent of term order), already accumulated in sum when the probes end,
// with a single exact float conversion for the top-k module. No per-posting
// float math, no per-document normalizer read.
//
//boss:hotpath the sparse-path driver loop; scratch lives on the run record.
func (r *run) sparse(pls []*index.PostingList) {
	n := len(pls)
	cs := r.openCursors(pls)
	rankByBound(cs)

	docET := r.acc.opts.DocET
	// cs[:ess] are non-essential: their cumulative bound cannot reach the
	// cutoff. cut is -Inf (nothing is prunable) until the top-k fills, and
	// for the whole run with DocET off.
	cut, ess := math.Inf(-1), 0
	var candidates, docs, ops, seeks int64
windows:
	for {
		// Select pass: reload essential cursors that consumed their block,
		// then bound the window by the smallest docID under them and by the
		// earliest end of their blocks.
		lo, hi := noDoc, noDoc
		for i := ess; i < n; i++ {
			c := &cs[i]
			if c.pos == len(c.docs) && !r.sparseLoad(c) {
				if r.err != nil {
					return
				}
				continue // list exhausted
			}
			lo = min(lo, c.cur)
			hi = min(hi, uint64(c.docs[len(c.docs)-1]))
		}
		if lo == noDoc {
			break // essential streams exhausted; no remaining doc can win
		}
		hi = min(hi, lo+sparseSpan-1)
		base, last := uint32(lo), uint32(hi)

		// Accumulate: every essential posting in [lo, hi].
		for i := ess; i < n; i++ {
			c := &cs[i]
			docs := c.docs[c.pos:]
			imps := c.imps[c.pos:][:len(docs)]
			m := 0
			for ; m < len(docs) && docs[m] <= last; m++ {
				off := docs[m] - base
				r.winSum[off] += score.Impact(imps[m], c.step)
				r.winCnt[off]++
				r.winBits[off>>6] |= 1 << (off & 63)
			}
			c.wend = c.pos + m
		}

		// Walk: one candidate per set bit, ascending; each is cleared from the
		// scratch as it is taken.
		set := r.winBits[:(last-base)>>6+1]
		for w := range set {
			for set[w] != 0 {
				off := w<<6 | bits.TrailingZeros64(set[w])
				set[w] &= set[w] - 1
				sum, matched := r.winSum[off], int64(r.winCnt[off])
				r.winSum[off], r.winCnt[off] = 0, 0
				d := base + uint32(off)
				candidates++

				// Non-essential probes in descending-bound order: before each,
				// check whether even perfect matches in every remaining list
				// could reach the cutoff; abandon the candidate the moment
				// they cannot.
				abandoned := false
				for j := ess - 1; j >= 0 && !abandoned; j-- {
					c := &cs[j]
					if sum.Float()+c.prefix < cut {
						abandoned = true
						break
					}
					var code uint8
					switch {
					case c.cur == uint64(d):
						code = c.imps[c.pos]
					case c.cur > uint64(d) && c.cur != noDoc:
						// The cursor already stands beyond d inside a loaded
						// block: d is absent, and nothing is examined or
						// charged.
					case c.cur < uint64(d) && c.spans(d):
						// d lies ahead of the cursor inside its loaded block:
						// the probe is the in-block seek sparseProbe would
						// make there, charged the same.
						seeks += int64(c.seekGE(uint64(d)))
						if c.cur == uint64(d) {
							code = c.imps[c.pos]
						}
					default:
						rem := 0.0
						if j > 0 {
							rem = cs[j-1].prefix
						}
						code, abandoned = r.sparseProbe(c, d, sum, rem, cut) // code is 0 on abandon
						if r.err != nil {
							r.clearWindow()
							return
						}
					}
					if code != 0 {
						sum += score.Impact(code, c.step)
						matched++
					}
				}
				if abandoned {
					continue
				}
				docs++
				ops += matched
				r.sel.Insert(d, sum.Float())
				if !docET || r.cutoff() == cut {
					continue
				}
				// The insert moved the threshold: re-partition. Strict <, so
				// cutoff ties are never pruned (they are scored and lose the
				// top-k tie-break exactly as in exhaustive order).
				cut = r.cutoff()
				e := essentialFrom(cs, ess, cut)
				if e == n {
					// Even all lists together cannot beat the cutoff. Only a
					// list bound that understates its impacts gets here.
					r.clearWindow()
					break windows
				}
				for ; ess < e; ess++ {
					r.demote(&cs[ess], d, base)
				}
			}
		}
		for i := ess; i < n; i++ {
			cs[i].seek(cs[i].wend)
		}
	}
	// One selector decision per candidate, one merger step per posting an
	// in-block probe passed, one scoring op per matched posting and one top-k
	// broadcast per evaluated document, added at once (exact: see cursor).
	// The error returns above skip it; a failed run reports no metrics.
	r.mergeCycles += 1.5*float64(candidates) + float64(seeks)
	r.scoreOps += float64(ops)
	r.topkInserts += float64(docs)
	r.m.DocsEvaluated += docs
}

// demote moves essential cursor c to the non-essential side at candidate d
// of the window based at base: it stands the cursor on its first posting
// beyond d and takes its postings in (d, hi] back out of the window,
// clearing the bit of a document no essential list holds any more.
//
//boss:hotpath once per list demoted, at most once per list per query.
func (r *run) demote(c *cursor, d, base uint32) {
	c.seekGE(uint64(d) + 1) // uncharged: the merge charges per candidate, not per posting
	for p := c.pos; p < c.wend; p++ {
		off := c.docs[p] - base
		r.winSum[off] -= score.Impact(c.imps[p], c.step)
		if r.winCnt[off]--; r.winCnt[off] == 0 {
			r.winBits[off>>6] &^= 1 << (off & 63)
		}
	}
}

// clearWindow zeroes the window scratch for a run that leaves a window
// before walking it to its end.
//
//boss:hotpath at most once per sparse query, on its early exits.
func (r *run) clearWindow() {
	clear(r.winSum[:])
	clear(r.winCnt[:])
	clear(r.winBits[:])
}

// sparseLoad positions an essential cursor on its next posting, fetching
// and decoding the current block if needed. Returns false when the list
// is exhausted or the fetch failed (r.err latched).
//
//boss:hotpath once per consumed block of an essential list.
func (r *run) sparseLoad(c *cursor) bool {
	for {
		if c.bi >= len(c.pl.Blocks) {
			return false
		}
		r.visit(c)
		if !c.loaded && !r.load(c) {
			return false // r.err latched; sparse loop unwinds
		}
		if c.pos < len(c.docs) {
			return true
		}
		r.advanceBlock(c) // consumed, so loaded: no skip is counted
	}
}

// sparseProbe seeks a non-essential cursor to candidate d and reads its
// impact code. Blocks wholly before d pass on metadata alone (counted
// skipped when never loaded); when d falls inside a block's range, the
// per-block maximum impact is checked first — if even it cannot lift the
// candidate to the cutoff the probe reports abandon without fetching.
// Returns (code, abandon); code 0 means d is absent from the list. The
// caller answers probes whose cursor already stands at or beyond d itself.
//
//boss:hotpath once per non-essential list per surviving candidate that moves its cursor.
func (r *run) sparseProbe(c *cursor, d uint32, sum score.Fixed, rem, cut float64) (uint8, bool) {
	for {
		blk := c.curBlock()
		if blk == nil {
			return 0, false
		}
		r.visit(c)
		if blk.LastDoc < d {
			r.advanceBlock(c)
			continue
		}
		if blk.FirstDoc > d {
			return 0, false // d sits in the gap before this block
		}
		if !c.loaded {
			// A probe implies a full top-k (ess > 0), so cut is finite.
			if r.acc.opts.BlockET &&
				sum.Float()+score.Impact(blk.MaxImpact, c.step).Float()+rem < cut {
				// Even this block's best impact plus every remaining
				// list's bound cannot reach the cutoff: abandon the
				// candidate without fetching the block.
				return 0, true
			}
			if !r.load(c) {
				return 0, false // r.err latched; sparse loop unwinds
			}
		}
		// The merger steps one posting per cycle; the gallop is the host's.
		r.mergeCycles += float64(c.seekGE(uint64(d)))
		if c.cur == uint64(d) {
			return c.imps[c.pos], false
		}
		return 0, false
	}
}

// rankByBound readies sparse cursors over impact lists: each list's step
// and dequantized bound, the cursors in ascending bound order — stable, so
// equal-bound terms keep query order and runs are deterministic; like the
// union module's sorter an O(small²) insertion sort, alloc-free — and each
// cursor's prefix, the cumulative bound of it and every lower-bound cursor:
// the largest score a document matching only those lists could reach. All
// bounds are dequantized Q16.16 values (dyadic rationals far below 2^53),
// so the float sums and the comparisons against them are exact.
//
//boss:hotpath called once per sparse query.
func rankByBound(cs []cursor) {
	for i := range cs {
		c := &cs[i]
		c.step = c.pl.ImpactStep
		c.ub = score.Impact(c.pl.MaxImpact, c.step).Float()
	}
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].ub < cs[j-1].ub; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
	acc := 0.0
	for i := range cs {
		acc += cs[i].ub
		cs[i].prefix = acc
	}
}

// essentialFrom is the one definition of "essential at threshold t" over
// cursors in rankByBound order: it returns the index of the first cursor
// whose prefix bound reaches t, searching up from e, the partition at a
// lower threshold. The cursors below it cannot together lift a document to
// t; strict <, so a document tying t is never pruned.
//
//boss:hotpath once per threshold move.
func essentialFrom(cs []cursor, e int, t float64) int {
	for e < len(cs) && cs[e].prefix < t {
		e++
	}
	return e
}
