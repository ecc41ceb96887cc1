package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"boss/internal/cache"
	"boss/internal/compress"
	"boss/internal/corpus"
	"boss/internal/index"
	"boss/internal/mem"
	"boss/internal/query"
)

// operatorChargesGolden is the SHA-256 of every TopK and every perf.Metrics
// the sweep below produces. It was first computed at commit 4f3b056 — the
// parent of the change that moved the document-at-a-time operators onto one
// flat cursor — and recomputed at 1ed1d2d, on unchanged operators, when the
// sweep gained its fixed-point and host-top-k arms and the dense unions:
// the parent of the change that put a sorted frontier under the union
// module — and once more at 356a0d0, again on unchanged operators, when it
// gained the SpillIntermediates arm (the one branch of the intersection that
// charges from the candidate count) and the dense conjunctions and mixed
// queries: the parent of the change that moved the intersection passes onto
// the cursor. The bench/ workloads pin sim_us_per_op for DefaultOptions at
// k = 10/100 only; this pins the operators' answers and charges for every
// ablation, both arithmetic arms, both cache arms and a shallow and a deep
// k. A change that means to alter what the model charges recomputes it and
// says so; any other change leaves it alone.
const operatorChargesGolden = "f22e601d26f2411546b63f24e86073c7dcde25fb199adf101ffb71f52f5e4423"

// TestOperatorChargesGolden runs a seeded Q1–Q7 sweep × seven option sets ×
// cache nil/attached × k ∈ {1, 10, 100}, then unions, conjunctions and mixed
// queries over a dense corpus (most documents in three or more of the query's
// lists, query order ≠ DF order) under the same option sets, and hashes every
// result
// (pool.TestDeviceReportGolden is the precedent).
func TestOperatorChargesGolden(t *testing.T) {
	c, idx := sparseFixture(t, 0.01)
	type item struct {
		node  *query.Node
		terms []string // set for Q7, which runs as a term set
	}
	var items []item
	for _, qt := range append(corpus.AllQueryTypes(), corpus.Q7) {
		for _, q := range corpus.SampleQueries(c, qt, 200, 2718) {
			it := item{node: query.MustParse(q.Expr)}
			if qt == corpus.Q7 {
				it.terms = q.Terms
			}
			items = append(items, it)
		}
	}
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	record := func(res Result) {
		put(uint64(len(res.TopK)))
		for _, e := range res.TopK {
			put(uint64(e.DocID))
			put(math.Float64bits(e.Score))
		}
		fmt.Fprintf(h, "%+v\n", *res.M)
	}
	optionSets := []Options{
		DefaultOptions(), ExhaustiveOptions(), BlockOnlyOptions(), {DocET: true},
		{BlockET: true, DocET: true, FixedPoint: true},
		{BlockET: true, DocET: true, HostTopK: true},
		{BlockET: true, DocET: true, SpillIntermediates: true},
	}
	for _, opts := range optionSets {
		for _, cached := range []bool{false, true} {
			var ch *cache.Cache
			if cached {
				// Small enough that the sweep evicts: hits, misses and
				// re-publishes all occur (asserted below).
				ch = cache.NewSharded(128<<10, 2)
			}
			acc := NewCached(idx, opts, ch)
			for _, k := range []int{1, 10, 100} {
				for _, it := range items {
					var res Result
					var err error
					if it.terms != nil {
						res, err = acc.Exec(nil, query.Plan{Terms: it.terms}, k)
					} else {
						res, err = acc.Exec(nil, it.node.Plan(), k)
					}
					if err != nil {
						t.Fatalf("%s: %v", it.node, err)
					}
					record(res)
				}
			}
			if cached {
				if st := acc.Cache().Stats(); st.Hits == 0 || st.Misses == 0 || st.Evictions == 0 || st.PinnedEntries != 0 {
					t.Fatalf("cache arm not exercised or left pinned: %+v", st)
				}
			}
		}
	}
	dense := index.Build(corpus.Generate(denseUnionSpec(400, 8, 0xD35E)),
		index.BuildOptions{Scheme: compress.SchemeHybrid, BlockSize: 16})
	spilled := false
	for _, opts := range optionSets {
		acc := New(dense, opts)
		for _, k := range []int{1, 10, 100} {
			for _, expr := range append(denseUnionExprs[:len(denseUnionExprs):len(denseUnionExprs)], denseConjExprs...) {
				res, err := acc.Exec(nil, query.MustParse(expr).Plan(), k)
				if err != nil {
					t.Fatalf("%s: %v", expr, err)
				}
				record(res)
				spilled = spilled || res.M.Cat[mem.CatStoreInter] > 0
			}
		}
	}
	if !spilled {
		t.Fatal("no run spilled an intermediate: the SpillIntermediates arm charged nothing")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != operatorChargesGolden {
		t.Fatalf("operator answers or charges moved:\n got %s\nwant %s", got, operatorChargesGolden)
	}
}
