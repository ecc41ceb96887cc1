package engine

import (
	"fmt"
	"sort"

	"boss/internal/perf"
	"boss/internal/query"
	"boss/internal/topk"
)

// EnableWAND switches the engine's pure-union evaluation from exhaustive
// DAAT to the WAND algorithm (Broder et al.), as modern Lucene versions do.
// The paper's Lucene baseline is exhaustive; this mode supports the
// "hardened baseline" ablation — how much of BOSS's union advantage
// survives when the software side also early-terminates.
func (e *Engine) EnableWAND() { e.wand = true }

// runWAND evaluates a pure disjunction of terms with document-level WAND.
// The caller guarantees every child of node is a term. Results are
// identical to exhaustive evaluation (ET is lossless, with the same
// tie-safe >= pivoting the hardware model uses). A corrupt block fails the
// run as it fails Run.
func (e *Engine) runWAND(node *query.Node, k int, m *perf.Metrics, ta *tally) (Result, error) {
	children := make([]*termIter, len(node.Children))
	for i, c := range node.Children {
		pl := e.idx.List(c.Term)
		if pl == nil {
			return Result{}, fmt.Errorf("engine: term %q not indexed", c.Term)
		}
		children[i] = e.newTermIter(pl, m, ta)
		children[i].ord = i
	}
	all := append([]*termIter(nil), children...)
	defer func() {
		for _, c := range all {
			c.close()
		}
	}()
	sel := topk.NewHeap(k)
	for {
		// Live iterators sorted by current doc.
		live := children[:0]
		for _, c := range children {
			if c.valid() {
				live = append(live, c)
			}
		}
		children = live
		if len(children) == 0 {
			break
		}
		sort.SliceStable(children, func(i, j int) bool { return children[i].doc() < children[j].doc() })

		cutoff := sel.Threshold()
		acc := 0.0
		pivot := -1
		for i, c := range children {
			ta.mergeOps++
			acc += c.pl.MaxScore
			if acc >= cutoff {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			break // nothing left can beat the cutoff
		}
		pivotDoc := children[pivot].doc()
		if children[0].doc() == pivotDoc {
			// Every list before the pivot sits on the pivot document:
			// score it with all matching lists, summed in expression order
			// so floating-point results match the exhaustive path exactly.
			matched := make([]*termIter, 0, len(children))
			for _, c := range children {
				if c.valid() && c.doc() == pivotDoc {
					matched = append(matched, c)
				}
			}
			sort.Slice(matched, func(i, j int) bool { return matched[i].ord < matched[j].ord })
			var s float64
			m.DocsEvaluated++
			for _, c := range matched {
				s += c.score()
			}
			ta.heapInserts++
			sel.Insert(pivotDoc, s)
			for _, c := range matched {
				c.next()
			}
			continue
		}
		// Advance the lists below the pivot up to the pivot document.
		for _, c := range children[:pivot] {
			if c.valid() && c.doc() < pivotDoc {
				c.seekGEQ(pivotDoc)
			}
		}
	}
	if err := firstErr(all); err != nil {
		return Result{}, err
	}
	ta.flush(m)
	return Result{TopK: sel.Results(), M: m}, nil
}
