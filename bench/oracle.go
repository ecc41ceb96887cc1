package main

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"boss/internal/corpus"
	"boss/internal/engine"
	"boss/internal/index"
	"boss/internal/query"
	"boss/internal/score"
	"boss/internal/topk"
)

// queryInfo is one distinct stream query with its expected answer.
type queryInfo struct {
	expr  string
	canon string // query.Canonical(): the front door's coalescing key
	node  *query.Node
	k     int
	want  []topk.Entry
}

// poolFactor is how many candidate queries buildStream draws per stream
// position.
const poolFactor = 8

// costProxy is a cheap stand-in for a query's work, from document
// frequencies alone: the postings a union scans; for a pure conjunction,
// the shortest list plus, list by list in ascending length, the blocks
// the surviving candidates are expected to land in (skipping passes over
// the rest), the candidates thinning as if terms were independent.
func costProxy(t corpus.QueryType, q corpus.Query, df map[string]int, numDocs int) float64 {
	dfs := make([]float64, len(q.Terms))
	for i, term := range q.Terms {
		dfs[i] = float64(df[term])
	}
	if t != corpus.Q2 && t != corpus.Q4 {
		sum := 0.0
		for _, d := range dfs {
			sum += d
		}
		return sum
	}
	sort.Float64s(dfs)
	cands, cost := dfs[0], dfs[0]
	for _, d := range dfs[1:] {
		blocks := math.Ceil(d / index.DefaultBlockSize)
		cost += index.DefaultBlockSize * blocks * (1 - math.Exp(-cands/blocks))
		cands *= d / float64(numDocs)
	}
	return cost
}

// buildStream samples the workload's request stream from seed: streamN
// Zipf(1.07)-by-term-rank queries from corpus.SampleZipfQueries, the
// spec's types interleaved. Query cost is heavy-tailed (p99/p50 of the
// service time is over 10), so a plain sample of a few thousand moves the
// mean cost by 7-11% from seed to seed — more than any bound. The stream is
// therefore a systematic sample: poolFactor candidates are drawn per
// position, ordered by costProxy, and every poolFactor-th is kept (from a
// seeded offset, in arrival order). Different seeds still give different
// queries, but every stream carries the population's cost distribution.
// It returns the stream (repeated queries share one *queryInfo) and the
// distinct queries in first-seen order.
func buildStream(sp spec, c *corpus.Corpus, seed int64) (stream, distinct []*queryInfo, err error) {
	df := make(map[string]int, len(c.Terms))
	for i := range c.Terms {
		df[c.Terms[i].Term] = len(c.Terms[i].Postings)
	}
	rng := rand.New(rand.NewSource(seed))
	per := (sp.streamN + len(sp.types) - 1) / len(sp.types)
	byType := make([][]corpus.Query, len(sp.types))
	for i, t := range sp.types {
		pool := corpus.SampleZipfQueries(c, t, per*poolFactor, zipfS, seed)
		order := make([]int, len(pool))
		proxy := make([]float64, len(pool))
		for j := range pool {
			order[j], proxy[j] = j, costProxy(t, pool[j], df, c.Spec.NumDocs)
		}
		sort.SliceStable(order, func(a, b int) bool { return proxy[order[a]] < proxy[order[b]] })
		picked := make([]int, per)
		offset := rng.Intn(poolFactor)
		for j := range picked {
			picked[j] = order[offset+j*poolFactor]
		}
		sort.Ints(picked)
		for _, j := range picked {
			byType[i] = append(byType[i], pool[j])
		}
	}
	seen := make(map[string]*queryInfo)
	for i := 0; i < sp.streamN; i++ {
		q := byType[i%len(sp.types)][i/len(sp.types)]
		qi := seen[q.Expr]
		if qi == nil {
			node, perr := query.Parse(q.Expr)
			if perr != nil {
				return nil, nil, fmt.Errorf("stream query %q: %w", q.Expr, perr)
			}
			qi = &queryInfo{expr: q.Expr, canon: node.Canonical(), node: node, k: sp.k}
			seen[q.Expr] = qi
			distinct = append(distinct, qi)
		}
		stream = append(stream, qi)
	}
	return stream, distinct, nil
}

// oracle holds what a delivered result is checked against.
type oracle struct {
	sparse bool
	// docHash[id] is the hash of document id's regenerated payload
	// (search-fetch only).
	docHash []uint64
	seed    maphash.Seed
	// refRunUs is the p50 of the reference evaluator's run time.
	refRunUs float64
}

// newOracle computes the expected top-k of every distinct query over the
// monolithic index mono, on GOMAXPROCS workers: the reference
// internal/engine for boolean queries (the comparison cmd/verify makes),
// a brute-force impact accumulator for SPARSE queries (exact: Q16.16
// integer sums). With fetch set it also hashes every document's payload,
// regenerated from corpus.DocName/DocText.
func newOracle(sp spec, c *corpus.Corpus, mono *index.Index, distinct []*queryInfo) (*oracle, error) {
	o := &oracle{sparse: sp.sparse, seed: maphash.MakeSeed()}
	var lists map[string]*impactList
	if sp.sparse {
		lists = decodeImpactLists(mono, distinct)
	}
	workers := runtime.GOMAXPROCS(0)
	lat := make([]float64, len(distinct))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			eval := func(q *queryInfo) ([]topk.Entry, error) {
				res, err := engine.New(mono).Run(q.node, q.k)
				return res.TopK, err
			}
			if sp.sparse {
				eval = newSparseRef(mono.NumDocs, lists).run
			}
			for i := wi; i < len(distinct); i += workers {
				q := distinct[i]
				start := time.Now()
				want, err := eval(q)
				lat[i] = float64(time.Since(start)) / 1e3
				if err != nil {
					errs[wi] = fmt.Errorf("oracle %q: %w", q.expr, err)
					return
				}
				q.want = want
			}
		}(wi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	o.refRunUs = median(lat)
	if sp.fetch {
		o.docHash = make([]uint64, c.Spec.NumDocs)
		var name, text []byte
		for id := range o.docHash {
			name = corpus.DocName(name[:0], uint32(id))
			text = corpus.DocText(c.Spec.Seed, uint32(id), c.DocLens[id], c.Spec.NumTerms, text[:0])
			o.docHash[id] = o.hashDoc(name, text)
		}
	}
	return o, nil
}

// impactList is one posting list decoded to (docID, dequantized impact).
type impactList struct {
	docs []uint32
	imps []score.Fixed
}

// decodeImpactLists decodes every list the queries name, once.
func decodeImpactLists(mono *index.Index, qs []*queryInfo) map[string]*impactList {
	lists := make(map[string]*impactList)
	var tfs []uint32
	for _, q := range qs {
		for _, term := range q.node.Terms() {
			pl := mono.List(term)
			if pl == nil || lists[term] != nil {
				continue
			}
			il := &impactList{docs: make([]uint32, 0, pl.DF), imps: make([]score.Fixed, 0, pl.DF)}
			for b := range pl.Blocks {
				il.docs, tfs = mono.DecodeBlock(pl, b, il.docs, tfs[:0])
				for _, code := range pl.BlockImpacts(b) {
					il.imps = append(il.imps, score.Impact(code, pl.ImpactStep))
				}
			}
			lists[term] = il
		}
	}
	return lists
}

// sparseRef is the SPARSE reference evaluator: it accumulates every
// posting of every query term into a dense per-document sum and offers
// the touched documents, in docID order, to a top-k queue. It shares no
// code with core's MaxScore operator; the package test checks it against
// core.ExhaustiveOptions() (the byte-identical twin, too slow — 21 ms per
// query at the benchmark's corpus scale — to run over a whole stream).
type sparseRef struct {
	lists map[string]*impactList
	sum   []score.Fixed
	stamp []uint32 // stamp[d] == epoch: document d matched this query
	epoch uint32
}

func newSparseRef(numDocs int, lists map[string]*impactList) *sparseRef {
	return &sparseRef{lists: lists, sum: make([]score.Fixed, numDocs), stamp: make([]uint32, numDocs)}
}

func (s *sparseRef) run(q *queryInfo) ([]topk.Entry, error) {
	s.epoch++
	for _, term := range q.node.Terms() {
		il := s.lists[term]
		if il == nil {
			return nil, fmt.Errorf("term %q not indexed", term)
		}
		for i, d := range il.docs {
			if s.stamp[d] != s.epoch {
				s.stamp[d], s.sum[d] = s.epoch, 0
			}
			s.sum[d] += il.imps[i]
		}
	}
	sel := topk.NewShiftRegister(q.k)
	for d, st := range s.stamp {
		if st == s.epoch {
			sel.Insert(uint32(d), s.sum[d].Float())
		}
	}
	return sel.Results(), nil
}

func (o *oracle) hashDoc(name, text []byte) uint64 {
	return maphash.Bytes(o.seed, name)*31 + maphash.Bytes(o.seed, text)
}

// Failure reasons, the keys of a report's failure breakdown. okResult
// (the empty string) is a correct answer.
const (
	okResult     = ""
	failRejected = "rejected" // Submit refused: ErrOverloaded, ErrShed, ...
	failError    = "error"    // the request executed and failed
	failDegraded = "degraded" // a partial answer (Degraded != 0)
	failWrong    = "wrong"    // a complete answer that is not the oracle's
)

// undelivered classifies a result that is not a complete answer.
func undelivered(d delivered) string {
	switch {
	case d.err != nil:
		return failError
	case d.degraded != 0:
		return failDegraded
	}
	return okResult
}

// checkSearch classifies a delivered ranking against the expected one.
func (o *oracle) checkSearch(q *queryInfo, d delivered) string {
	if reason := undelivered(d); reason != okResult {
		return reason
	}
	same := agree
	if o.sparse {
		same = sameTopK
	}
	if !same(d.topk, q.want) {
		return failWrong
	}
	return okResult
}

// checkDocs classifies delivered payloads against the documents ids
// name, in order.
func (o *oracle) checkDocs(ids []uint32, d delivered) string {
	if reason := undelivered(d); reason != okResult {
		return reason
	}
	if len(d.docs) != len(ids) {
		return failWrong
	}
	for i, doc := range d.docs {
		if doc.DocID != ids[i] || len(doc.Fields) != 2 || int(doc.DocID) >= len(o.docHash) {
			return failWrong
		}
		if o.hashDoc(doc.Fields[0], doc.Fields[1]) != o.docHash[doc.DocID] {
			return failWrong
		}
	}
	return okResult
}

// sameTopK is exact equality (docIDs and scores).
func sameTopK(a, b []topk.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// agree compares rankings the way cmd/verify does: scores within 1e-9
// position by position, tolerating permutations among equal scores.
func agree(a, b []topk.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i].Score-b[i].Score) > 1e-9 {
			return false
		}
		if a[i].DocID == b[i].DocID {
			continue
		}
		found := false
		for j := range b {
			if b[j].DocID == a[i].DocID && math.Abs(a[i].Score-b[j].Score) <= 1e-9 {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// hitIDs is the FetchIDs list of a search-fetch chain's second leg.
func hitIDs(entries []topk.Entry) []uint32 {
	ids := make([]uint32, len(entries))
	for i, e := range entries {
		ids[i] = e.DocID
	}
	return ids
}
