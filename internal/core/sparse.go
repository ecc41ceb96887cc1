package core

import (
	"context"
	"fmt"
	"math"

	"boss/internal/index"
	"boss/internal/mem"
	"boss/internal/score"
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
// missing impacts or not indexed fail exactly as they do in Exec.
func (a *Accelerator) PlanSparse(terms []string, threshold float64) (*SparsePlan, error) {
	lists, err := a.resolveSparse(nil, terms)
	if err != nil {
		return nil, err
	}
	infos := make([]SparseTermInfo, len(lists))
	for i, pl := range lists {
		infos[i] = SparseTermInfo{
			Term:      pl.Term,
			MaxImpact: score.Impact(pl.MaxImpact, pl.ImpactStep).Float(),
		}
	}
	sort := func(s []SparseTermInfo) {
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && s[j].MaxImpact < s[j-1].MaxImpact; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
	}
	sort(infos)
	acc := 0.0
	ess := 0
	for i := range infos {
		acc += infos[i].MaxImpact
		infos[i].Prefix = acc
		if infos[i].Prefix < threshold {
			ess = i + 1
		}
	}
	return &SparsePlan{Terms: infos, Essential: ess}, nil
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
// operator. The result-traffic and compute charges mirror runDNF's.
func (a *Accelerator) runSparse(ctx context.Context, terms []string, k int) (Result, error) {
	if ctx != nil {
		if cause := ctx.Err(); cause != nil {
			return Result{}, ctxError(cause)
		}
	}
	r := a.newRun(k)
	defer a.releaseRun(r)
	r.ctx = ctx
	// The terms are distinct, so the plan arena alone is the plan.
	var err error
	if r.planLists, err = a.resolveSparse(r.planLists, terms); err != nil {
		return Result{}, err
	}
	r.nTerms = len(r.planLists)

	r.sparse(r.planLists)
	if r.err != nil {
		return Result{}, r.err
	}

	results := r.sel.Results()
	outBytes := int64(len(results)) * resultEntryBytes
	if a.opts.HostTopK {
		outBytes = r.m.DocsEvaluated * resultEntryBytes
	}
	r.m.AddHostWrite(outBytes, mem.CatStoreResult)
	r.m.AddCompute(r.computeTime())
	return Result{TopK: results, M: r.m}, nil
}

// sparse runs the MaxScore driver loop over the query's posting lists, one
// cursor per list (the terms are distinct). With DocET off (the exhaustive
// ablation) every list stays essential and the loop degenerates to a full
// scoring merge — the comparison baseline for the pruning bench.
//
// The loop keeps the model's decisions where they were and moves only host
// work. The partition is recomputed right after an insert moves the top-k
// threshold, the only event that can change it. A cursor that consumed its
// block is reloaded by the next select pass — after that partition, so only
// if the list is still essential and only if the run did not end on
// ess == n — which keeps the set of blocks examined and fetched exactly what
// loading at every candidate selection produced. Between select passes the
// pass that collects a candidate's essential matches also yields the next
// candidate.
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
	for i := range cs {
		c := &cs[i]
		c.step = c.pl.ImpactStep
		c.ub = score.Impact(c.pl.MaxImpact, c.step).Float()
	}
	sortByBound(cs)
	// cs[i].prefix bounds the total contribution of cs[:i+1]: the largest
	// score a document matching only those lists could reach. All bounds
	// are dequantized Q16.16 values (dyadic rationals far below 2^53), so
	// the float sums and comparisons below are exact.
	acc := 0.0
	for i := range cs {
		acc += cs[i].ub
		cs[i].prefix = acc
	}

	docET := r.acc.opts.DocET
	// cs[:ess] are non-essential: their cumulative bound cannot reach the
	// cutoff. cut is -Inf (nothing is prunable) until the top-k fills, and
	// for the whole run with DocET off.
	cut, ess := math.Inf(-1), 0
	var candidates, docs, ops int64
	next, rescan := noDoc, true
	for {
		if rescan {
			// Select pass: reload essential cursors that consumed their
			// block and take the smallest upcoming docID from scratch.
			rescan = false
			next = noDoc
			for i := ess; i < n; i++ {
				c := &cs[i]
				if c.pos == len(c.docs) && !r.sparseLoad(c) {
					if r.err != nil {
						return
					}
					continue // list exhausted
				}
				if c.cur < next {
					next = c.cur
				}
			}
		}
		if next == noDoc {
			break // essential streams exhausted; no remaining doc can win
		}
		d := uint32(next)
		candidates++

		// Essential contributions at d (integer accumulation; matched counts
		// the postings that add to it), and the smallest docID left under the
		// essential cursors.
		var sum score.Fixed
		var matched int64
		next = noDoc
		for i := ess; i < n; i++ {
			c := &cs[i]
			if c.cur == uint64(d) {
				sum += score.Impact(c.imps[c.pos], c.step)
				matched++
				c.seek(c.pos + 1)
				if c.cur == noDoc {
					rescan = true // block consumed: the next select pass reloads
				}
			}
			if c.cur < next {
				next = c.cur
			}
		}

		// Non-essential probes in descending-bound order: before each,
		// check whether even perfect matches in every remaining list
		// could reach the cutoff; abandon the candidate the moment they
		// cannot.
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
				// block: d is absent, and nothing is examined or charged.
			default:
				rem := 0.0
				if j > 0 {
					rem = cs[j-1].prefix
				}
				code, abandoned = r.sparseProbe(c, d, sum, rem, cut) // code is 0 on abandon
				if r.err != nil {
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
		// The insert moved the threshold: re-partition. Strict <, so cutoff
		// ties are never pruned (they are scored and lose the top-k
		// tie-break exactly as in exhaustive order).
		cut = r.cutoff()
		e := ess
		for e < n && cs[e].prefix < cut {
			e++
		}
		if e == n {
			break // even all lists together cannot beat the cutoff
		}
		if e != ess {
			ess, rescan = e, true // the minimum may have sat on a demoted list
		}
	}
	// One selector decision per candidate, one scoring op per matched posting
	// and one top-k broadcast per evaluated document, added at once (exact:
	// see cursor). The error returns above skip it; a failed run reports no
	// metrics.
	r.mergeCycles += 1.5 * float64(candidates)
	r.scoreOps += float64(ops)
	r.topkInserts += float64(docs)
	r.m.DocsEvaluated += docs
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

// sortByBound insertion-sorts cursors by ascending list bound. Stable, so
// equal-bound terms keep query order and runs are deterministic; like the
// union module's sorter it stays O(small²) and alloc-free.
//
//boss:hotpath called once per sparse query.
func sortByBound(cs []cursor) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].ub < cs[j-1].ub; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}
