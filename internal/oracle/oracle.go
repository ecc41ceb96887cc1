// Package oracle is the repository's one reference evaluator and its two
// top-k comparators. Eval scores a plan by brute force, sharing no code with
// any engine; Same and Agree hold an engine's top-k to it. It imports only
// the data packages below the engines, so every engine's own tests can use
// it, as cmd/verify's differential matrix does.
package oracle

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"boss/internal/corpus"
	"boss/internal/index"
	"boss/internal/query"
	"boss/internal/score"
	"boss/internal/topk"
)

// Eval returns plan's exact top-k over idx, the index built from c, ranked
// by the software heap: higher score first, then smaller docID.
//
// A boolean plan is scored from c's postings. A document matches a conjunct
// when every term of it holds the document, and its score adds term scores
// conjunct by conjunct, each conjunct's terms in stable DF order: every
// occurrence for a lone conjunction, each distinct term once for a mixed
// query, query order for a pure union. That is the summation order the
// intersection and union modules are specified to have. fixed scores each
// term in Q16.16, as a FixedPoint accelerator does.
//
// A SPARSE plan (nil DNF) adds each document's dequantized impact codes in
// Q16.16, decoding every block with the index's software codec; c is not
// read, and fixed does not apply.
func Eval(c *corpus.Corpus, idx *index.Index, plan query.Plan, k int, fixed bool) []topk.Entry {
	sel := topk.NewHeap(k)
	if plan.DNF == nil {
		sums := make([]score.Fixed, idx.NumDocs)
		hit := make([]bool, idx.NumDocs)
		for _, term := range plan.Terms {
			pl := idx.MustList(term)
			for b := range pl.Blocks {
				docs, _ := idx.DecodeBlock(pl, b, nil, nil)
				for i, code := range pl.BlockImpacts(b) {
					sums[docs[i]] += score.Impact(code, pl.ImpactStep)
					hit[docs[i]] = true
				}
			}
		}
		for d, ok := range hit {
			if ok {
				sel.Insert(uint32(d), sums[d].Float())
			}
		}
		return sel.Results()
	}

	tfs := make(map[string]map[uint32]uint32)
	ordered := make([][]string, len(plan.DNF))
	var cands []uint32 // each conjunct's rarest list: every document that can match
	for i, conj := range plan.DNF {
		for _, term := range conj {
			if tfs[term] == nil {
				tfs[term] = make(map[uint32]uint32)
				for _, p := range c.Term(term) {
					tfs[term][p.DocID] = p.TF
				}
			}
		}
		ordered[i] = slices.Clone(conj)
		slices.SortStableFunc(ordered[i], func(a, b string) int { return cmp.Compare(len(tfs[a]), len(tfs[b])) })
		for d := range tfs[ordered[i][0]] {
			cands = append(cands, d)
		}
	}
	slices.Sort(cands)
	seen := make(map[string]bool)
	for _, d := range slices.Compact(cands) {
		sum, hit := 0.0, false
		clear(seen)
		for _, conj := range ordered {
			if slices.ContainsFunc(conj, func(term string) bool { _, ok := tfs[term][d]; return !ok }) {
				continue
			}
			hit = true
			for _, term := range conj {
				if len(plan.DNF) > 1 && seen[term] {
					continue
				}
				seen[term] = true
				pl, tf := idx.MustList(term), tfs[term][d]
				if fixed {
					sum += idx.Params.FixedTermScore(score.ToFixed(pl.IDF), tf, score.ToFixed(idx.DocNorms[d])).Float()
				} else {
					sum += idx.TermScore(pl, d, tf)
				}
			}
		}
		if hit {
			sel.Insert(d, sum)
		}
	}
	return sel.Results()
}

// Same reports whether got equals want entry by entry — docID, score bits
// and order — and otherwise describes the first divergence.
func Same(got, want []topk.Entry) error {
	return compare(got, want, func(g, w topk.Entry) bool {
		return g.DocID == w.DocID && math.Float64bits(g.Score) == math.Float64bits(w.Score)
	})
}

// Agree is Same within the tolerance of an engine that sums in its own
// order: each rank's score is want's within 1e-9, and a document may take
// the rank of another whose score ties with its own within that.
func Agree(got, want []topk.Entry) error {
	near := func(a, b topk.Entry) bool { return math.Abs(a.Score-b.Score) <= 1e-9 }
	return compare(got, want, func(g, w topk.Entry) bool {
		return near(g, w) && (g.DocID == w.DocID || slices.ContainsFunc(want, func(o topk.Entry) bool { return o.DocID == g.DocID && near(g, o) }))
	})
}

// compare walks the ranks both lists hold until ok fails, then checks the
// lengths.
func compare(got, want []topk.Entry, ok func(g, w topk.Entry) bool) error {
	for i := range min(len(got), len(want)) {
		if !ok(got[i], want[i]) {
			return fmt.Errorf("rank %d diverged: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	return nil
}
