// Package iiu models IIU (Heo et al., ASPLOS 2020), the state-of-the-art
// inverted-index accelerator the paper compares against, with exactly the
// behaviors Sections II-D and III attribute to it:
//
//   - binary-search-based intersection: membership tests locate candidate
//     blocks through dependent random metadata probes and load them with
//     random reads — fast on DRAM, painful on SCM;
//   - merge-based union without any pruning: every block of every term is
//     streamed and every matching document is scored;
//   - multi-term queries spill intermediate result lists to memory and
//     re-load them for the next set operation (LD/ST Inter traffic);
//   - no hardware top-k: the full scored, unsorted result list is written
//     to memory and shipped to the host (ST Result + interconnect traffic);
//     following the paper's methodology, host-side top-k selection time is
//     NOT charged;
//   - a hardware-tied compression scheme: IIU's index should be built with
//     a single fixed scheme (the harness uses Bit-Packing) rather than the
//     hybrid per-list choice BOSS supports.
//
// IIU does have full intra-query parallelism: all four decompression and
// scoring units work on any query, which is why it beats BOSS-exhaustive on
// single-term queries in Figure 13.
package iiu

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"boss/internal/index"
	"boss/internal/mem"
	"boss/internal/perf"
	"boss/internal/query"
	"boss/internal/sim"
	"boss/internal/topk"
)

// Hardware parameters of the IIU model.
const (
	clockGHz          = 1.0
	decompUnits       = 4 // usable by any query (intra-query parallelism)
	scoringUnits      = 4
	probeCyclesPerHop = 6 // on-chip comparator work per binary-search hop
	resultEntryBytes  = 8 // (docID, score) pair
	interEntryBytes   = 8 // intermediate (docID, tf) pair
	// cachedMetaLevels is how many upper levels of the block-metadata
	// search tree fit in IIU's on-chip buffers; only deeper binary-search
	// hops touch memory.
	cachedMetaLevels = 8
)

func cyclesToTime(c float64) sim.Duration {
	return sim.Duration(c / clockGHz * float64(sim.Nanosecond))
}

// Accelerator is an IIU device model over one index shard.
type Accelerator struct {
	idx *index.Index
}

// New returns an IIU model. The index should be built with a single fixed
// compression scheme to reflect IIU's hardware-tied decompressor.
func New(idx *index.Index) *Accelerator {
	return &Accelerator{idx: idx}
}

// Result is the outcome of one query.
type Result struct {
	// TopK holds the final ranked results. IIU itself emits an unsorted
	// scored list; the host's selection (not charged, per the paper's
	// methodology) produces this ranking.
	TopK []topk.Entry
	M    *perf.Metrics
}

// run tracks the state of a single query execution.
type run struct {
	acc *Accelerator
	m   *perf.Metrics

	decodeCycles float64 // total across streams; divided by decompUnits
	mergeCycles  float64
	scoreCycles  float64
}

// Run executes a query, returning top-k results and work metrics.
func (a *Accelerator) Run(node *query.Node, k int) (Result, error) {
	r := &run{acc: a, m: perf.NewMetrics()}
	matches, err := r.eval(node)
	if err != nil {
		return Result{}, err
	}

	// Score every matching document (no pruning anywhere in IIU).
	sel := topk.NewHeap(k)
	for _, pm := range matches {
		s := r.scoreDoc(pm)
		sel.Insert(pm.doc, s)
	}

	// The full scored, unsorted list is stored to pool memory (Figure 15's
	// ST Result traffic) and then read back by the host over the shared
	// interconnect; host-side top-k selection time itself is not charged,
	// per the paper's methodology.
	resultBytes := int64(len(matches)) * resultEntryBytes
	r.m.AddWrite(resultBytes, mem.CatStoreResult)
	r.m.AddHost(resultBytes, mem.CatStoreResult)

	// Pipeline stages overlap; the busiest unit class bounds compute time.
	stage := math.Max(r.decodeCycles/decompUnits,
		math.Max(r.mergeCycles, r.scoreCycles/scoringUnits))
	r.m.AddCompute(cyclesToTime(stage))
	return Result{TopK: sel.Results(), M: r.m}, nil
}

// postingMatch is a matched document with the tf of every matched term.
type postingMatch struct {
	doc   uint32
	terms []termTF
}

type termTF struct {
	pl *index.PostingList
	tf uint32
}

// scoreDoc charges scoring work and norm traffic for one document and
// returns its BM25 score.
func (r *run) scoreDoc(pm postingMatch) float64 {
	r.m.DocsEvaluated++
	// One per-document scoring-metadata access; docIDs ascend, so the
	// stream is prefetch-friendly (sequential bandwidth).
	r.m.AddSeqRead(index.DocNormBytes, mem.CatLoadScore)
	var s float64
	for _, tt := range pm.terms {
		s += r.acc.idx.TermScore(tt.pl, pm.doc, tt.tf)
		r.scoreCycles++
	}
	return s
}

// eval returns the full sorted match list for a query node.
func (r *run) eval(node *query.Node) ([]postingMatch, error) {
	switch node.Op {
	case query.OpTerm:
		return r.scanTerm(node.Term)
	case query.OpOr:
		lists := make([][]postingMatch, len(node.Children))
		for i, c := range node.Children {
			l, err := r.eval(c)
			if err != nil {
				return nil, err
			}
			lists[i] = l
		}
		// The merge tree feeds scoring directly for a root union; when the
		// union is an operand of an AND, the parent materializes it.
		return r.mergeUnion(lists), nil
	case query.OpAnd:
		lists := make([][]postingMatch, 0, len(node.Children))
		// Evaluate non-term children first (they become materialized
		// intermediates), terms stay as lazy posting lists handled by the
		// binary-search intersection.
		var terms []*index.PostingList
		for _, c := range node.Children {
			if c.Op == query.OpTerm {
				pl := r.acc.idx.List(c.Term)
				if pl == nil {
					return nil, fmt.Errorf("iiu: term %q not indexed", c.Term)
				}
				terms = append(terms, pl)
				continue
			}
			l, err := r.eval(c)
			if err != nil {
				return nil, err
			}
			r.spill(len(l)) // composite operand is materialized in memory
			lists = append(lists, l)
		}
		return r.intersect(terms, lists)
	default:
		return nil, fmt.Errorf("iiu: unknown query op %d", node.Op)
	}
}

// scanTerm streams a whole posting list sequentially (union path / single
// term).
func (r *run) scanTerm(term string) ([]postingMatch, error) {
	pl := r.acc.idx.List(term)
	if pl == nil {
		return nil, fmt.Errorf("iiu: term %q not indexed", term)
	}
	out := make([]postingMatch, 0, pl.DF)
	var docs, tfs []uint32
	for b := range pl.Blocks {
		r.chargeBlockLoad(pl, b, false)
		var err error
		if docs, tfs, err = r.decode(pl, b, docs, tfs); err != nil {
			return nil, err
		}
		for i := range docs {
			out = append(out, postingMatch{doc: docs[i], terms: []termTF{{pl, tfs[i]}}})
		}
	}
	return out, nil
}

// chargeBlockLoad accounts one block fetch. random marks binary-search
// located loads (intersection path).
func (r *run) chargeBlockLoad(pl *index.PostingList, b int, random bool) {
	meta := pl.Blocks[b]
	size := int64(meta.Length) + index.BlockMetaBytes
	if random {
		r.m.AddRandRead(size, mem.CatLoadList, true)
	} else {
		r.m.AddSeqRead(size, mem.CatLoadList)
	}
	r.m.BlocksFetched++
	r.m.PostingsDecoded += int64(meta.Count)
	// Decode both the docID and tf streams (two values per posting) through
	// two-lane extraction: one cycle per posting.
	r.decodeCycles += float64(meta.Count)
}

// decode decodes block b of pl into docs and tfs once its payload passes
// its checksum: a corrupt block is refused, never scored.
func (r *run) decode(pl *index.PostingList, b int, docs, tfs []uint32) ([]uint32, []uint32, error) {
	if !pl.VerifyBlock(b) {
		return nil, nil, fmt.Errorf("iiu: list %q block %d: checksum mismatch: %w", pl.Term, b, index.ErrCorrupt)
	}
	docs, tfs = r.acc.idx.DecodeBlock(pl, b, docs[:0], tfs[:0])
	return docs, tfs, nil
}

// mergeUnion merges sorted match lists, concatenating term contributions
// for shared documents. One merge-tree comparison per consumed posting.
func (r *run) mergeUnion(lists [][]postingMatch) []postingMatch {
	pos := make([]int, len(lists))
	var out []postingMatch
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
			return out
		}
		merged := postingMatch{doc: bestDoc}
		for i, l := range lists {
			if pos[i] < len(l) && l[pos[i]].doc == bestDoc {
				merged.terms = append(merged.terms, l[pos[i]].terms...)
				pos[i]++
				r.mergeCycles++
			}
		}
		out = append(out, merged)
	}
}

// spill charges a round trip of an intermediate list through memory.
func (r *run) spill(entries int) {
	bytes := int64(entries) * interEntryBytes
	r.m.AddWrite(bytes, mem.CatStoreInter)
	r.m.AddSeqRead(bytes, mem.CatLoadInter)
}

// intersect runs IIU's iterative SvS with binary-search membership testing.
// terms are raw posting lists; materialized holds already-evaluated
// composite operands (e.g. an inner union).
func (r *run) intersect(terms []*index.PostingList, materialized [][]postingMatch) ([]postingMatch, error) {
	// SvS: start from the smallest operand.
	sort.Slice(terms, func(i, j int) bool { return terms[i].DF < terms[j].DF })

	var current []postingMatch
	switch {
	case len(materialized) > 0:
		// Smallest materialized list seeds the iteration.
		sort.Slice(materialized, func(i, j int) bool {
			return len(materialized[i]) < len(materialized[j])
		})
		current = materialized[0]
		materialized = materialized[1:]
	case len(terms) > 0:
		first, err := r.scanTerm(terms[0].Term)
		if err != nil {
			return nil, err
		}
		current = first
		terms = terms[1:]
	}

	// Each pass after the first re-reads the previous pass's intermediate
	// from memory (spilled there at the end of that pass); the final pass's
	// output flows to scoring without an Inter round trip.
	passes := 0
	for _, pl := range terms {
		if passes > 0 {
			r.spill(len(current))
		}
		passes++
		var err error
		if current, err = r.probeList(current, pl); err != nil || len(current) == 0 {
			return current, err
		}
	}
	for _, ml := range materialized {
		if passes > 0 {
			r.spill(len(current))
		}
		passes++
		current = r.probeMaterialized(current, ml)
		if len(current) == 0 {
			return current, nil
		}
	}
	return current, nil
}

// probeList performs membership tests of candidates against a posting list
// using block-level binary search: each new candidate block is located by
// dependent random metadata probes and loaded with a random read.
func (r *run) probeList(candidates []postingMatch, pl *index.PostingList) ([]postingMatch, error) {
	var out []postingMatch
	loaded := -1
	var docs, tfs []uint32
	nBlocks := len(pl.Blocks)
	// Binary-search depth over block metadata; the top cachedMetaLevels
	// levels live on-chip, deeper hops read memory. Lookups for different
	// candidates are independent and pipeline, so the probes are
	// bandwidth-bound (random), while the block-data load that depends on
	// the search outcome pays full latency.
	hops := bits.Len(uint(nBlocks))
	memHops := hops - cachedMetaLevels
	if memHops < 0 {
		memHops = 0
	}
	for _, cand := range candidates {
		r.m.MembershipProbes++
		b := findBlock(pl, cand.doc)
		if b < 0 {
			continue
		}
		if b != loaded {
			for h := 0; h < memHops; h++ {
				r.m.AddRandRead(index.BlockMetaBytes, mem.CatLoadList, false)
			}
			r.mergeCycles += float64(hops * probeCyclesPerHop)
			r.chargeBlockLoad(pl, b, true)
			var err error
			if docs, tfs, err = r.decode(pl, b, docs, tfs); err != nil {
				return nil, err
			}
			loaded = b
		}
		// Binary search within the decoded block (on-chip).
		i := sort.Search(len(docs), func(i int) bool { return docs[i] >= cand.doc })
		r.mergeCycles += float64(bits.Len(uint(len(docs))))
		if i < len(docs) && docs[i] == cand.doc {
			out = append(out, postingMatch{
				doc:   cand.doc,
				terms: append(append([]termTF(nil), cand.terms...), termTF{pl, tfs[i]}),
			})
		}
	}
	return out, nil
}

// probeMaterialized intersects candidates with an in-memory intermediate
// list (sorted): a two-pointer merge with sequential re-reads already
// charged by spill().
func (r *run) probeMaterialized(candidates []postingMatch, ml []postingMatch) []postingMatch {
	var out []postingMatch
	j := 0
	for _, cand := range candidates {
		for j < len(ml) && ml[j].doc < cand.doc {
			j++
			r.mergeCycles++
		}
		r.mergeCycles++
		if j < len(ml) && ml[j].doc == cand.doc {
			out = append(out, postingMatch{
				doc:   cand.doc,
				terms: append(append([]termTF(nil), cand.terms...), ml[j].terms...),
			})
		}
	}
	return out
}

// findBlock returns the index of the block that could contain doc, or -1.
func findBlock(pl *index.PostingList, doc uint32) int {
	i := sort.Search(len(pl.Blocks), func(i int) bool { return pl.Blocks[i].LastDoc >= doc })
	if i >= len(pl.Blocks) {
		return -1
	}
	if pl.Blocks[i].FirstDoc > doc {
		return -1 // falls in a gap between blocks
	}
	return i
}
