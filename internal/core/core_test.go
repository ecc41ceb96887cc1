package core

import (
	"reflect"
	"testing"

	"boss/internal/cache"
	"boss/internal/compress"
	"boss/internal/corpus"
	"boss/internal/engine"
	"boss/internal/index"
	"boss/internal/mem"
	"boss/internal/oracle"
	"boss/internal/perf"
	"boss/internal/query"
)

type fixture struct {
	c   *corpus.Corpus
	idx *index.Index
	eng *engine.Engine
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	c := corpus.Generate(corpus.CCNewsLike(0.004))
	idx := index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid})
	return &fixture{c: c, idx: idx, eng: engine.New(idx)}
}

func TestETIsSafeAcrossKValues(t *testing.T) {
	// Early termination must be lossless for every k, including tiny k
	// where the cutoff bites hardest.
	f := newFixture(t)
	boss := New(f.idx, DefaultOptions())
	exh := New(f.idx, ExhaustiveOptions())
	exprs := []string{
		`"t0" OR "t1"`,
		`"t0" OR "t3" OR "t9" OR "t20"`,
		`"t2"`,
	}
	for _, expr := range exprs {
		node := query.MustParse(expr)
		for _, k := range []int{1, 3, 10, 100} {
			a, err := boss.exec(nil, node.Plan(), k)
			if err != nil {
				t.Fatal(err)
			}
			b, err := exh.exec(nil, node.Plan(), k)
			if err != nil {
				t.Fatal(err)
			}
			if err := oracle.Same(a.TopK, b.TopK); err != nil {
				t.Fatalf("%s k=%d: ET changed the result set: %v", expr, k, err)
			}
		}
	}
}

func TestUnknownTermErrors(t *testing.T) {
	f := newFixture(t)
	acc := New(f.idx, DefaultOptions())
	if _, err := acc.exec(nil, query.MustParse(`"zzz"`).Plan(), 10); err == nil {
		t.Fatal("expected error for unknown term")
	}
}

func TestBlockETSkipsBlocks(t *testing.T) {
	// A single-term query with small k: the cutoff rises to the best few
	// scores quickly, and blocks whose maximum term-score falls below it
	// are skipped without loading (the Figure 14 Q1 effect).
	f := newFixture(t)
	boss := New(f.idx, DefaultOptions())
	exh := New(f.idx, ExhaustiveOptions())
	node := query.MustParse(`"t0"`)
	a, err := boss.exec(nil, node.Plan(), 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := exh.exec(nil, node.Plan(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.M.BlocksFetched >= b.M.BlocksFetched {
		t.Fatalf("BOSS fetched %d blocks, exhaustive %d — block ET saved nothing",
			a.M.BlocksFetched, b.M.BlocksFetched)
	}
	if a.M.BlocksSkipped == 0 {
		t.Fatal("no blocks counted as skipped")
	}
	if a.M.Cat[mem.CatLoadList] >= b.M.Cat[mem.CatLoadList] {
		t.Fatal("block ET should reduce LD List bytes")
	}
}

func TestWANDReducesEvaluatedDocs(t *testing.T) {
	f := newFixture(t)
	blockOnly := New(f.idx, BlockOnlyOptions())
	full := New(f.idx, DefaultOptions())
	node := query.MustParse(`"t0" OR "t1" OR "t2" OR "t3"`)
	a, err := blockOnly.exec(nil, node.Plan(), 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := full.exec(nil, node.Plan(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if b.M.DocsEvaluated >= a.M.DocsEvaluated {
		t.Fatalf("WAND evaluated %d docs, block-only %d — no doc-level saving",
			b.M.DocsEvaluated, a.M.DocsEvaluated)
	}
}

func TestExhaustiveEvaluatesUnionFully(t *testing.T) {
	f := newFixture(t)
	exh := New(f.idx, ExhaustiveOptions())
	node := query.MustParse(`"t4" OR "t7"`)
	res, err := exh.exec(nil, node.Plan(), 10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.eng.Run(node, 10)
	if err != nil {
		t.Fatal(err)
	}
	// The software engine is also exhaustive for unions, so the evaluated
	// doc counts must agree exactly.
	if res.M.DocsEvaluated != want.M.DocsEvaluated {
		t.Fatalf("exhaustive BOSS evaluated %d docs, engine %d",
			res.M.DocsEvaluated, want.M.DocsEvaluated)
	}
}

func TestIntersectionSkipsNonOverlappingBlocks(t *testing.T) {
	f := newFixture(t)
	acc := New(f.idx, DefaultOptions())
	rare := f.c.Terms[len(f.c.Terms)-1].Term
	common := f.c.Terms[0].Term
	res, err := acc.exec(nil, query.MustParse(`"`+common+`" AND "`+rare+`"`).Plan(), 10)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(len(f.idx.MustList(common).Blocks) + len(f.idx.MustList(rare).Blocks))
	if res.M.BlocksFetched >= total {
		t.Fatalf("fetched %d of %d blocks; overlap check saved nothing", res.M.BlocksFetched, total)
	}
}

func TestNoIntermediateSpills(t *testing.T) {
	// BOSS's pipelined multi-term execution never touches memory for
	// intermediates — the key contrast with IIU (Figure 15).
	f := newFixture(t)
	acc := New(f.idx, DefaultOptions())
	exprs := []string{
		`"t0" AND "t1" AND "t2" AND "t3"`,
		`"t0" AND ("t1" OR "t2" OR "t3")`,
	}
	for _, expr := range exprs {
		res, err := acc.exec(nil, query.MustParse(expr).Plan(), 10)
		if err != nil {
			t.Fatal(err)
		}
		if res.M.Cat[mem.CatStoreInter] != 0 || res.M.Cat[mem.CatLoadInter] != 0 {
			t.Fatalf("%s: BOSS spilled intermediates", expr)
		}
	}
}

func TestHardwareTopKLimitsHostTraffic(t *testing.T) {
	f := newFixture(t)
	acc := New(f.idx, DefaultOptions())
	k := 25
	res, err := acc.exec(nil, query.MustParse(`"t0" OR "t1"`).Plan(), k)
	if err != nil {
		t.Fatal(err)
	}
	if res.M.HostBytes != int64(k)*resultEntryBytes {
		t.Fatalf("host traffic = %d bytes, want %d (k×8)", res.M.HostBytes, k*resultEntryBytes)
	}
	if res.M.Cat[mem.CatStoreResult] != int64(k)*resultEntryBytes {
		t.Fatalf("ST Result = %d bytes", res.M.Cat[mem.CatStoreResult])
	}
}

func TestSharedTermChargedOnceInMixedQuery(t *testing.T) {
	// Q6's DNF repeats term A in every conjunct; the block cache must
	// charge its loads once.
	f := newFixture(t)
	acc := New(f.idx, DefaultOptions())
	a := f.c.Terms[5].Term
	res, err := acc.exec(nil, query.MustParse(`"`+a+`" AND ("t1" OR "t2" OR "t3")`).Plan(), 10)
	if err != nil {
		t.Fatal(err)
	}
	aBlocks := int64(len(f.idx.MustList(a).Blocks))
	bcd := int64(len(f.idx.MustList("t1").Blocks) + len(f.idx.MustList("t2").Blocks) + len(f.idx.MustList("t3").Blocks))
	if res.M.BlocksFetched > aBlocks+bcd {
		t.Fatalf("fetched %d blocks > %d distinct blocks; shared term double-charged",
			res.M.BlocksFetched, aBlocks+bcd)
	}
}

// TestSharedTermRescanFetchesSkippedBlock is the shape where the shared
// term's block records are not simply appended and re-read: in
// `"t0" AND ("t39" OR "t1")` the first conjunct (rare t39 leading) passes two
// blocks of t0 on metadata alone, and the second conjunct (t1 leading)
// re-scans t0 from its first block and needs those two decoded. The re-scan
// must find each record without charging its metadata again, and load the
// block into the record the skip left. The three figures are the parent
// commit's (4f3b056, listState's two maps).
func TestSharedTermRescanFetchesSkippedBlock(t *testing.T) {
	f := newFixture(t)
	acc := New(f.idx, DefaultOptions())
	A, B, C := f.idx.MustList("t0"), f.idx.MustList("t39"), f.idx.MustList("t1")

	// The shape itself, conjunct by conjunct.
	r := acc.newRun(10, new(perf.Metrics))
	r.intersect([]*index.PostingList{A, B})
	ls := r.stateFor(A)
	var skipped []int
	for _, rec := range ls.recs {
		if rec.ent == nil {
			skipped = append(skipped, rec.b)
		}
	}
	if len(skipped) == 0 || r.m.BlocksSkipped == 0 {
		t.Fatalf("first conjunct skipped no block of the shared list (records %+v)", ls.recs)
	}
	r.intersect([]*index.PostingList{A, C})
	filled := 0
	for _, b := range skipped {
		if i, ok := ls.find(b); !ok {
			t.Fatalf("block %d's record vanished", b)
		} else if ls.recs[i].ent != nil {
			filled++
		}
	}
	if filled == 0 {
		t.Fatal("second conjunct fetched none of the blocks the first one skipped: the test exercises nothing")
	}
	// Every examined block has one record and was charged once, re-scan or not.
	records := 0
	for _, st := range r.lists {
		records += len(st.recs)
		for i := 1; i < len(st.recs); i++ {
			if st.recs[i-1].b >= st.recs[i].b {
				t.Fatalf("records not strictly ascending: %+v", st.recs)
			}
		}
	}
	if r.fetchCycles != float64(records*blockFetchCycles) {
		t.Fatalf("fetch cycles %v for %d block records, want %d each", r.fetchCycles, records, blockFetchCycles)
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	acc.releaseRun(r)

	res, err := acc.exec(nil, query.MustParse(`"t0" AND ("t39" OR "t1")`).Plan(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.M.BlocksFetched != 14 || res.M.BlocksSkipped != 2 || res.M.Cat[mem.CatLoadList] != 3120 {
		t.Fatalf("fetched %d, skipped %d, LD List %d B; the parent charges 14, 2, 3120",
			res.M.BlocksFetched, res.M.BlocksSkipped, res.M.Cat[mem.CatLoadList])
	}
}

// TestBlockRecords walks listState's block-record slice through every
// lookup shape: empty, the tail hit and ascending append every operator
// makes, and the out-of-order insert only a re-scan could need.
func TestBlockRecords(t *testing.T) {
	f := newFixture(t)
	acc := New(f.idx, DefaultOptions())
	pl := f.idx.MustList("t0")
	r := acc.newRun(10, new(perf.Metrics))
	ls := r.stateFor(pl)
	blocks := func(ls *listState) []int {
		out := make([]int, len(ls.recs))
		for i, rec := range ls.recs {
			out[i] = rec.b
		}
		return out
	}
	var pinned []uint32 // block 7's decoded docIDs, loaded midway
	for _, st := range []struct {
		name string
		b    int
		seen bool // already examined before this step
		want []int
	}{
		{"empty", 3, false, []int{3}},
		{"tail hit", 3, true, []int{3}},
		{"ascending append", 7, false, []int{3, 7}},
		{"ascending append again", 8, false, []int{3, 7, 8}},
		{"insert in the middle", 5, false, []int{3, 5, 7, 8}},
		{"lookup after insert: shifted record", 7, true, []int{3, 5, 7, 8}},
		{"lookup after insert: inserted record", 5, true, []int{3, 5, 7, 8}},
		{"insert at the front", 0, false, []int{0, 3, 5, 7, 8}},
		{"tail still hits", 8, true, []int{0, 3, 5, 7, 8}},
		{"absent between records", 4, false, []int{0, 3, 4, 5, 7, 8}},
	} {
		if _, seen := ls.find(st.b); seen != st.seen {
			t.Fatalf("%s: find(%d) seen = %v, want %v", st.name, st.b, seen, st.seen)
		}
		before := r.fetchCycles
		r.chargeMeta(ls, st.b)
		if got := blocks(ls); !reflect.DeepEqual(got, st.want) {
			t.Fatalf("%s: records %v, want %v", st.name, got, st.want)
		}
		if charged := r.fetchCycles != before; charged == st.seen {
			t.Fatalf("%s: metadata charged = %v for a block with seen = %v", st.name, charged, st.seen)
		}
		if st.name == "ascending append" {
			// Load block 7 so the inserts below shift a record that
			// holds a decoded block.
			if pinned, _, _ = r.fetchBlock(ls, pl, 7); pinned == nil {
				t.Fatal(r.err)
			}
		}
		if pinned != nil {
			if got, _, _ := r.fetchBlock(ls, pl, 7); &got[0] != &pinned[0] || r.m.BlocksFetched != 1 {
				t.Fatalf("%s: block 7 re-fetched (got %p, want %p, fetched %d)", st.name, got, pinned, r.m.BlocksFetched)
			}
		}
	}
	// One 32-record metadata chunk covers the six examined blocks.
	if got, want := r.m.Cat[mem.CatLoadList], int64(metaChunkEntries*index.BlockMetaBytes)+int64(pl.Blocks[7].Length); got != want {
		t.Fatalf("LD List = %d B, want one metadata chunk + block 7 = %d B", got, want)
	}

	// releaseRun truncates the records and drops their blocks; the recycled
	// listState starts empty.
	acc.releaseRun(r)
	if len(ls.recs) != 0 {
		t.Fatalf("released listState keeps %d records", len(ls.recs))
	}
	for i, rec := range ls.recs[:cap(ls.recs)] {
		if holdsBlock(rec) {
			t.Fatalf("released listState still holds a block at %d", i)
		}
	}
	r2 := acc.newRun(10, new(perf.Metrics))
	defer acc.releaseRun(r2)
	ls2 := r2.stateFor(pl)
	if r2 == r && ls2 != ls {
		t.Fatal("recycled run did not reuse its free listState")
	}
	if _, seen := ls2.find(5); seen {
		t.Fatal("a fresh run sees the previous run's block 5")
	}
	r2.chargeMeta(ls2, 5)
	if got := blocks(ls2); !reflect.DeepEqual(got, []int{5}) {
		t.Fatalf("after reuse: records %v, want [5]", got)
	}
}

func TestFixedPointApproximatesFloat(t *testing.T) {
	f := newFixture(t)
	fp := New(f.idx, Options{BlockET: true, DocET: true, FixedPoint: true})
	fl := New(f.idx, DefaultOptions())
	node := query.MustParse(`"t1" OR "t4"`)
	a, err := fp.exec(nil, node.Plan(), 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fl.exec(nil, node.Plan(), 50)
	if err != nil {
		t.Fatal(err)
	}
	// Q16.16 quantization may permute near-ties; demand ≥90% overlap.
	set := make(map[uint32]bool, len(b.TopK))
	for _, e := range b.TopK {
		set[e.DocID] = true
	}
	common := 0
	for _, e := range a.TopK {
		if set[e.DocID] {
			common++
		}
	}
	if common < len(b.TopK)*9/10 {
		t.Fatalf("fixed-point top-k overlaps float top-k on only %d/%d docs", common, len(b.TopK))
	}
}

func TestComputeTimePositiveAndDeterministic(t *testing.T) {
	f := newFixture(t)
	acc := New(f.idx, DefaultOptions())
	node := query.MustParse(`"t2" AND ("t5" OR "t6" OR "t8")`)
	r1, err := acc.exec(nil, node.Plan(), 10)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := acc.exec(nil, node.Plan(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if r1.M.ComputeTime <= 0 {
		t.Fatal("no compute time")
	}
	if r1.M.ComputeTime != r2.M.ComputeTime || r1.M.SeqReadBytes != r2.M.SeqReadBytes {
		t.Fatal("runs not deterministic")
	}
}

func TestBOSSBeatsEngineOnLatency(t *testing.T) {
	// The headline claim, in miniature: on SCM, BOSS's single-core query
	// latency should beat the software engine's on union queries over
	// substantial posting lists (the paper's TREC terms are common words;
	// tiny lists are dominated by fixed overheads on both sides).
	f := newFixture(t)
	acc := New(f.idx, DefaultOptions())
	exprs := []string{
		`"t0" OR "t1" OR "t2" OR "t3"`,
		`"t1" OR "t2" OR "t4" OR "t6"`,
		`"t0" OR "t5" OR "t7" OR "t9"`,
	}
	for _, expr := range exprs {
		node := query.MustParse(expr)
		b, err := acc.exec(nil, node.Plan(), 100)
		if err != nil {
			t.Fatal(err)
		}
		e, err := f.eng.Run(node, 100)
		if err != nil {
			t.Fatal(err)
		}
		bossLat := b.M.Latency(mem.SCM())
		engLat := e.M.Latency(mem.HostSCM())
		if bossLat >= engLat {
			t.Fatalf("%s: BOSS latency %v >= engine latency %v", expr, bossLat, engLat)
		}
	}
}

func TestBOSSMoreBandwidthEfficientThanExhaustive(t *testing.T) {
	f := newFixture(t)
	boss := New(f.idx, DefaultOptions())
	exh := New(f.idx, ExhaustiveOptions())
	node := query.MustParse(`"t0" OR "t1" OR "t4" OR "t6"`)
	a, err := boss.exec(nil, node.Plan(), 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := exh.exec(nil, node.Plan(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.M.DeviceBytes() >= b.M.DeviceBytes() {
		t.Fatalf("BOSS moved %d bytes, exhaustive %d", a.M.DeviceBytes(), b.M.DeviceBytes())
	}
}

// holdsBlock reports whether a block record references decoded data in any
// way: a pinned entry, or the slices themselves.
func holdsBlock(rec blockRec) bool {
	return rec.ent != nil || rec.docs != nil || rec.tfs != nil
}

// The candidate table holds docIDs and tfs only, so a pooled run has nothing
// in it to un-pin; what a release must guarantee is that the rows a run left
// behind are out of every later pass's reach. Over a large conjunction, a
// mixed query of three conjuncts (a later pass compacting in place, a
// single-term conjunct streaming its whole list) and small queries that touch
// a fraction of the grown arrays: while a run holds its outputs, the
// conjuncts' rows tile the table exactly — back to back, nothing beyond the
// last — and after releaseRun both arrays and the conjunct offsets are empty.
// The old match records made a single-term conjunct cost 48 bytes a posting,
// which the pooled run then kept capacity for (a 60k-posting shard list:
// 2.9 MB per run record); a table row of one slot is 8.
func TestReleaseRunResetsCandidateTable(t *testing.T) {
	f := newFixture(t)
	acc := New(f.idx, DefaultOptions())
	rare := f.c.Terms[len(f.c.Terms)-1].Term
	steps := [][][]string{
		{{"t0", "t1"}}, // large: grows the table
		{{"t0", "t1", "t2"}, {"t3"}, {"t1", "t4"}}, // three conjuncts; probePass compacts in place
		{{"t0", rare}}, // small: most of the table untouched
		{{rare}, {"t0", rare}},
	}
	grown := 0
	for i, dnf := range steps {
		r := acc.newRun(10, new(perf.Metrics))
		if err := r.plan(dnf); err != nil {
			t.Fatal(err)
		}
		for ci := range r.planEnd {
			r.intersect(r.conjunct(ci))
		}
		if r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.conj) != len(dnf) {
			t.Fatalf("step %d: %d conjunct outputs for %d conjuncts", i, len(r.conj), len(dnf))
		}
		lo, tf := 0, 0
		for ci, c := range r.conj {
			if c.lo != lo || c.tf != tf || c.n != len(dnf[ci]) || c.hi < c.lo {
				t.Fatalf("step %d: conjunct %d's rows %+v do not start where the previous one's end (row %d, tf %d)", i, ci, c, lo, tf)
			}
			lo, tf = c.hi, c.tf+(c.hi-c.lo)*c.n
		}
		if lo != len(r.candDocs) || tf != len(r.candTFs) {
			t.Fatalf("step %d: table holds %d docIDs and %d tfs, the conjuncts' rows end at %d and %d", i, len(r.candDocs), len(r.candTFs), lo, tf)
		}
		grown = max(grown, cap(r.candDocs))
		r.unionConjuncts()
		acc.releaseRun(r)
		if len(r.candDocs) != 0 || len(r.candTFs) != 0 || len(r.conj) != 0 {
			t.Fatalf("step %d: releaseRun left %d docIDs, %d tfs and %d conjunct offsets in the table", i, len(r.candDocs), len(r.candTFs), len(r.conj))
		}
	}
	if grown == 0 {
		t.Fatal("the candidate table never grew: the test exercised nothing")
	}
}

// The same hygiene for the plan scratch, the cursor scratch of the
// document-at-a-time operators and the block records beneath every operator:
// a released run holds no posting list, no decoded block and no cache pin —
// over the full capacity of each scratch slice, after a wide query and after
// the narrower ones that follow it.
func TestReleaseRunLeavesCursorScratchPinFree(t *testing.T) {
	_, idx := sparseFixture(t, 0.004)
	ch := cache.NewSharded(8<<20, 2)
	acc := NewCached(idx, DefaultOptions(), ch)
	lists := func(terms ...string) []*index.PostingList {
		pls := make([]*index.PostingList, len(terms))
		for i, tm := range terms {
			pls[i] = idx.MustList(tm)
		}
		return pls
	}
	planned := func(r *run, dnf [][]string) {
		if err := r.plan(dnf); err != nil {
			t.Fatal(err)
		}
	}
	steps := []struct {
		name string
		run  func(r *run)
	}{
		{"sparse, 8 lists", func(r *run) { r.sparse(lists("t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7")) }},
		{"union, 4 lists", func(r *run) { r.union(lists("t0", "t1", "t2", "t3")) }},
		{"sparse, 2 lists", func(r *run) { r.sparse(lists("t3", "t9")) }},
		{"planned conjunction, 3 lists", func(r *run) {
			planned(r, [][]string{{"t0", "t1", "t2"}})
			r.intersect(r.planLists)
			r.scoreConjunct()
		}},
		{"union, 1 list", func(r *run) { r.union(lists("t5")) }},
		{"planned union, 5 lists", func(r *run) {
			planned(r, [][]string{{"t4"}, {"t0"}, {"t8"}, {"t2"}, {"t6"}})
			r.union(r.planLists)
		}},
		{"planned mixed, a wide conjunct before narrower ones", func(r *run) {
			planned(r, [][]string{{"t0", "t1", "t2", "t4"}, {"t0", "t2"}, {"t3"}})
			r.mixed()
		}},
		{"planned sparse, 3 lists", func(r *run) {
			var err error
			if r.planLists, err = acc.resolveSparse(r.planLists, []string{"t1", "t2", "t3"}); err != nil {
				t.Fatal(err)
			}
			r.sparse(r.planLists)
		}},
		{"planned single term", func(r *run) {
			planned(r, [][]string{{"t7"}})
			r.union(r.planLists)
		}},
	}
	widest, widestPlan := 0, 0
	for pass := 0; pass < 2; pass++ { // the second pass runs on cache hits
		for _, st := range steps {
			r := acc.newRun(10, new(perf.Metrics))
			st.run(r)
			if r.err != nil {
				t.Fatal(r.err)
			}
			if r.m.BlocksFetched == 0 {
				t.Fatalf("%s: fetched nothing", st.name)
			}
			acc.releaseRun(r)
			widest = max(widest, cap(r.cursors))
			for i, c := range r.cursors[:cap(r.cursors)] {
				if c.pl != nil || c.ls != nil || c.docs != nil || c.tfs != nil || c.imps != nil {
					t.Fatalf("%s: cursor %d of %d still references its list or block after releaseRun", st.name, i, cap(r.cursors))
				}
			}
			widestPlan = max(widestPlan, cap(r.planLists))
			for i, pl := range r.planLists[:cap(r.planLists)] {
				if pl != nil {
					t.Fatalf("%s: plan arena entry %d of %d still references a posting list", st.name, i, cap(r.planLists))
				}
			}
			for i, pl := range r.distinct[:cap(r.distinct)] {
				if pl != nil {
					t.Fatalf("%s: distinct-list entry %d still references a posting list", st.name, i)
				}
			}
			if len(r.planEnd) != 0 {
				t.Fatalf("%s: %d conjunct offsets left in the plan", st.name, len(r.planEnd))
			}
			if len(r.lists) != 0 {
				t.Fatalf("%s: %d lists still mapped", st.name, len(r.lists))
			}
			for _, ls := range r.lsFree {
				for i, rec := range ls.recs[:cap(ls.recs)] {
					if holdsBlock(rec) {
						t.Fatalf("%s: a free listState still holds a decoded block at record %d", st.name, i)
					}
				}
			}
			if p := ch.Stats().PinnedEntries; p != 0 {
				t.Fatalf("%s: %d cache entries still pinned", st.name, p)
			}
		}
	}
	if widest < 8 || widestPlan < 5 {
		t.Fatal("the cursor or plan scratch never grew: the test exercised nothing")
	}
	if st := ch.Stats(); st.Hits == 0 {
		t.Fatalf("no cache hit: the pinned-entry path was not exercised (%+v)", st)
	}
}
