// Package engine implements the software search-engine baseline standing in
// for Apache Lucene in the paper's evaluation: document-at-a-time (DAAT)
// evaluation with exhaustive scoring for unions, Small-versus-Small (SvS)
// conjunction with skip-based seeking for intersections, and a software heap
// for top-k. A calibrated CPU cost model charges nanoseconds per decode,
// compare, score and heap operation, which keeps the baseline compute-bound
// exactly as the paper observes (Lucene gains at most ~15% from DRAM over
// SCM in Figure 16).
package engine

import (
	"fmt"
	"math"
	"sort"

	"boss/internal/index"
	"boss/internal/mem"
	"boss/internal/perf"
	"boss/internal/query"
	"boss/internal/sim"
	"boss/internal/topk"
)

// The per-operation CPU costs in nanoseconds, calibrated so an 8-core
// software baseline lands where the paper's Lucene does relative to the
// accelerator models.
const (
	decodeNSPerValue = 1.8  // posting decompression, per value
	scoreNSPerOp     = 4.2  // one BM25 term-score evaluation
	mergeNSPerOp     = 2.0  // one comparison/advance in merge or probe
	seekNSPerBlock   = 28.0 // skip-list traversal + iterator dispatch, per seek
	heapNSPerInsert  = 4.0  // one top-k heap offer
)

// Engine is a software query engine over one index shard.
type Engine struct {
	idx  *index.Index
	wand bool
}

// New returns an engine over idx.
func New(idx *index.Index) *Engine {
	return &Engine{idx: idx}
}

// Result is the outcome of one query.
type Result struct {
	TopK []topk.Entry
	M    *perf.Metrics
}

// tally counts hot-loop operations for one query. The iterators bump plain
// integer counters on every posting touched; the cost model is applied once
// per query in flush. Charging perf.Metrics per posting (a float multiply,
// a Duration conversion and a method call per next()/score()/probe) used to
// dominate real wall-clock time on union-heavy queries.
type tally struct {
	decoded     int64 // postings decompressed
	scoreOps    int64 // BM25 term-score evaluations
	mergeOps    int64 // merge/advance comparisons
	seeks       int64 // skip-based seekGEQ dispatches
	heapInserts int64 // top-k offers
}

// flush converts the accumulated counts to compute time on m and zeroes the
// tally. Applying each per-operation cost to its whole count keeps the
// result deterministic regardless of iteration interleaving.
func (ta *tally) flush(m *perf.Metrics) {
	ns := decodeNSPerValue*float64(ta.decoded) +
		scoreNSPerOp*float64(ta.scoreOps) +
		mergeNSPerOp*float64(ta.mergeOps) +
		seekNSPerBlock*float64(ta.seeks) +
		heapNSPerInsert*float64(ta.heapInserts)
	m.AddCompute(sim.Duration(ns * float64(sim.Nanosecond)))
	*ta = tally{}
}

// Run evaluates the query and returns the top-k documents plus the work
// metrics the run accumulated. A block whose payload fails its checksum
// stops its list's cursor, and Run returns the first such error (wrapping
// index.ErrCorrupt) instead of a ranking that silently lacks the block. Run
// is safe for concurrent use from multiple goroutines: the engine itself is
// stateless and all per-query state lives in the iterator tree built here.
func (e *Engine) Run(node *query.Node, k int) (Result, error) {
	m := perf.NewMetrics()
	ta := &tally{}
	if e.wand && node.Op == query.OpOr && node.IsPureOr() {
		return e.runWAND(node, k, m, ta)
	}
	it, err := e.build(node, m, ta)
	if err != nil {
		return Result{}, err
	}
	sel := topk.NewHeap(k)
	for it.valid() {
		doc := it.doc()
		s := it.score()
		m.DocsEvaluated++
		ta.heapInserts++
		sel.Insert(doc, s)
		it.next()
	}
	err = it.err()
	it.close()
	if err != nil {
		return Result{}, err
	}
	ta.flush(m)
	return Result{TopK: sel.Results(), M: m}, nil
}

// iter is a DAAT document iterator. score() may only be called when
// valid(), and charges the scoring cost for the current document. err()
// reports the first integrity failure among its cursors. close() releases
// decode buffers back to the shared pool; the iterator must not be used
// afterwards.
type iter interface {
	valid() bool
	doc() uint32
	score() float64
	next()
	seekGEQ(target uint32) bool
	estDF() int
	err() error
	close()
}

// build compiles a query AST into an iterator tree.
func (e *Engine) build(node *query.Node, m *perf.Metrics, ta *tally) (iter, error) {
	switch node.Op {
	case query.OpTerm:
		pl := e.idx.List(node.Term)
		if pl == nil {
			return nil, fmt.Errorf("engine: term %q not indexed", node.Term)
		}
		return e.newTermIter(pl, m, ta), nil
	case query.OpAnd:
		children := make([]iter, len(node.Children))
		for i, c := range node.Children {
			it, err := e.build(c, m, ta)
			if err != nil {
				return nil, err
			}
			children[i] = it
		}
		return e.newAndIter(children, m, ta), nil
	case query.OpOr:
		children := make([]iter, len(node.Children))
		for i, c := range node.Children {
			it, err := e.build(c, m, ta)
			if err != nil {
				return nil, err
			}
			children[i] = it
		}
		return e.newOrIter(children, ta), nil
	case query.OpSparse:
		// The software baseline has no impact payloads: it evaluates the
		// sparse family as an exhaustive union with exact float BM25 —
		// the reference the quantized accelerator ranking is compared
		// against (top-k overlap, not byte equality).
		children := make([]iter, len(node.Children))
		for i, c := range node.Children {
			it, err := e.build(c, m, ta)
			if err != nil {
				return nil, err
			}
			children[i] = it
		}
		return e.newOrIter(children, ta), nil
	default:
		return nil, fmt.Errorf("engine: unknown query op %d", node.Op)
	}
}

// --- term iterator ---

type termIter struct {
	e   *Engine
	cur *index.Cursor
	pl  *index.PostingList
	ta  *tally
	ord int // position in the query expression (WAND summation order)
}

func (e *Engine) newTermIter(pl *index.PostingList, m *perf.Metrics, ta *tally) *termIter {
	t := &termIter{e: e, pl: pl, ta: ta}
	cur := index.NewCursor(e.idx, pl)
	cur.OnBlock = func(b int) {
		meta := pl.Blocks[b]
		size := int64(meta.Length) + index.BlockMetaBytes
		m.AddSeqRead(size, mem.CatLoadList)
		m.BlocksFetched++
		m.PostingsDecoded += int64(meta.Count)
		ta.decoded += int64(meta.Count)
	}
	t.cur = cur
	// The cursor decoded its first block during construction, before
	// OnBlock was attached; charge it now.
	if len(pl.Blocks) > 0 {
		cur.OnBlock(0)
	}
	return t
}

func (t *termIter) valid() bool { return t.cur.Valid() }
func (t *termIter) doc() uint32 { return t.cur.Doc() }
func (t *termIter) estDF() int  { return t.pl.DF }
func (t *termIter) err() error  { return t.cur.Err() }
func (t *termIter) close()      { t.cur.Release() }

func (t *termIter) score() float64 {
	t.ta.scoreOps++
	return t.cur.Score()
}

func (t *termIter) next() {
	t.ta.mergeOps++
	t.cur.Next()
}

func (t *termIter) seekGEQ(target uint32) bool {
	t.ta.seeks++
	return t.cur.SeekGEQ(target)
}

// --- conjunction (SvS document-at-a-time) ---

type andIter struct {
	children []iter // sorted by ascending estimated df
	m        *perf.Metrics
	ta       *tally
	cur      uint32
	ok       bool
}

func (e *Engine) newAndIter(children []iter, m *perf.Metrics, ta *tally) *andIter {
	sort.SliceStable(children, func(i, j int) bool {
		return children[i].estDF() < children[j].estDF()
	})
	a := &andIter{children: children, m: m, ta: ta}
	a.align(0)
	return a
}

// align advances all children to the smallest common docID >= target.
func (a *andIter) align(target uint32) {
	lead := a.children[0]
	if !lead.seekGEQ(target) {
		a.ok = false
		return
	}
	candidate := lead.doc()
outer:
	for {
		for _, c := range a.children[1:] {
			a.m.MembershipProbes++
			a.ta.mergeOps++
			if !c.seekGEQ(candidate) {
				a.ok = false
				return
			}
			if d := c.doc(); d != candidate {
				if !lead.seekGEQ(d) {
					a.ok = false
					return
				}
				candidate = lead.doc()
				continue outer
			}
		}
		a.cur = candidate
		a.ok = true
		return
	}
}

func (a *andIter) valid() bool { return a.ok }
func (a *andIter) doc() uint32 { return a.cur }

func (a *andIter) err() error { return firstErr(a.children) }

func (a *andIter) close() {
	for _, c := range a.children {
		c.close()
	}
}

func (a *andIter) estDF() int {
	// The conjunction is at most as long as its rarest child.
	return a.children[0].estDF()
}

func (a *andIter) score() float64 {
	var s float64
	for _, c := range a.children {
		s += c.score()
	}
	return s
}

func (a *andIter) next() {
	if !a.ok {
		return
	}
	a.align(a.cur + 1)
}

func (a *andIter) seekGEQ(target uint32) bool {
	if a.ok && a.cur >= target {
		return true
	}
	a.align(target)
	return a.ok
}

// --- disjunction (exhaustive DAAT union) ---

type orIter struct {
	children []iter
	ta       *tally
	cur      uint32
	ok       bool
}

func (e *Engine) newOrIter(children []iter, ta *tally) *orIter {
	o := &orIter{children: children, ta: ta}
	o.settle()
	return o
}

// settle finds the minimum document among children.
func (o *orIter) settle() {
	min := uint32(math.MaxUint32)
	o.ok = false
	for _, c := range o.children {
		o.ta.mergeOps++
		if c.valid() {
			if d := c.doc(); !o.ok || d < min {
				min = d
				o.ok = true
			}
		}
	}
	o.cur = min
}

func (o *orIter) valid() bool { return o.ok }
func (o *orIter) doc() uint32 { return o.cur }

func (o *orIter) err() error { return firstErr(o.children) }

func (o *orIter) close() {
	for _, c := range o.children {
		c.close()
	}
}

func (o *orIter) estDF() int {
	df := 0
	for _, c := range o.children {
		df += c.estDF()
	}
	return df
}

func (o *orIter) score() float64 {
	var s float64
	for _, c := range o.children {
		if c.valid() && c.doc() == o.cur {
			s += c.score()
		}
	}
	return s
}

func (o *orIter) next() {
	if !o.ok {
		return
	}
	for _, c := range o.children {
		if c.valid() && c.doc() == o.cur {
			c.next()
		}
	}
	o.settle()
}

func (o *orIter) seekGEQ(target uint32) bool {
	for _, c := range o.children {
		if c.valid() && c.doc() < target {
			c.seekGEQ(target)
		}
	}
	o.settle()
	return o.ok
}

// firstErr is the first integrity failure among iterators, in order.
func firstErr[I iter](its []I) error {
	for _, it := range its {
		if err := it.err(); err != nil {
			return err
		}
	}
	return nil
}
