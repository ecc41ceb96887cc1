package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"boss/internal/cache"
	"boss/internal/compress"
	"boss/internal/corpus"
	"boss/internal/index"
	"boss/internal/oracle"
	"boss/internal/query"
)

// denseConjExprs are conjunctions and mixed queries over
// denseUnionSpec(400, 8, …), every one out of DF (= rank) order: 2-, 3- and
// 4-term ANDs, a term distributed over a union, a single-term conjunct beside
// a conjunction, two conjuncts sharing a term that neither leads with, and a
// repeated term — alone, where both cursors of the first pass stand on one
// list, and behind a third list, where the later pass probes it again.
var denseConjExprs = []string{
	`"t5" AND "t2"`,
	`"t7" AND "t0" AND "t3"`,
	`"t6" AND "t1" AND "t4" AND "t2"`,
	`"t3" AND ("t6" OR "t0" OR "t5")`,
	`"t4" OR ("t7" AND "t1")`,
	`("t5" AND "t1") OR ("t3" AND "t7" AND "t1")`,
	`"t2" AND "t2"`,
	`"t1" AND "t4" AND "t1"`,
}

// TestIntersectByteIdentical holds the intersection module — pure
// conjunctions and mixed queries — to oracle.Eval entry by entry: same
// docID, same score bit pattern, same order, in float64 and in Q16.16, at a
// shallow, the benchmark's and the default k. The seeded Q2/Q4/Q6 sweep has
// the skew that makes the passes skip blocks and drop candidates into gaps;
// the dense corpus, queried out of DF order, makes nearly every posting a
// match and every later pass keep most of its candidates.
func TestIntersectByteIdentical(t *testing.T) {
	type sweep struct {
		name  string
		c     *corpus.Corpus
		idx   *index.Index
		nodes []*query.Node
	}
	c := corpus.Generate(corpus.CCNewsLike(0.004))
	s := sweep{name: "ccnews", c: c, idx: index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid})}
	for _, qt := range []corpus.QueryType{corpus.Q2, corpus.Q4, corpus.Q6} {
		for _, q := range corpus.SampleQueries(c, qt, 40, 31337) {
			s.nodes = append(s.nodes, query.MustParse(q.Expr))
		}
	}
	dc := corpus.Generate(denseUnionSpec(400, 8, 0xD35E))
	d := sweep{name: "dense", c: dc, idx: index.Build(dc, index.BuildOptions{Scheme: compress.SchemeHybrid, BlockSize: 16})}
	for _, expr := range denseConjExprs {
		d.nodes = append(d.nodes, query.MustParse(expr))
	}
	for _, sw := range []sweep{s, d} {
		var results, skipped int64
		for _, fixed := range []bool{false, true} {
			opts := DefaultOptions()
			opts.FixedPoint = fixed
			acc := New(sw.idx, opts)
			for _, k := range []int{1, 10, 1000} {
				for _, node := range sw.nodes {
					res, err := acc.Exec(nil, node.Plan(), k)
					if err != nil {
						t.Fatalf("%s: %v", node, err)
					}
					want := oracle.Eval(sw.c, sw.idx, node.Plan(), k, fixed)
					requireSameTopK(t, fmt.Sprintf("%s %s k=%d fixed=%v vs brute force", sw.name, node, k, fixed), res.TopK, want)
					results += int64(len(res.TopK))
					skipped += res.M.BlocksSkipped
				}
			}
		}
		if results == 0 {
			t.Fatalf("%s: every query came back empty: the test compared nothing", sw.name)
		}
		if sw.name == "ccnews" && skipped == 0 {
			t.Fatal("ccnews: no pass ever skipped a block")
		}
	}
}

// stepPair is the reference the closed-form pair charge is held to: the
// module's comparator as the paper draws it, consuming one posting of the
// smaller head — or one of each on a match — per cycle until either block
// ends. It returns where the two cursors stop, the cycles, and the matches.
func stepPair(ad, bd []uint32, pa, pb int) (int, int, int64, []uint32) {
	var cycles int64
	var matches []uint32
	for pa < len(ad) && pb < len(bd) {
		cycles++
		switch {
		case ad[pa] < bd[pb]:
			pa++
		case ad[pa] > bd[pb]:
			pb++
		default:
			matches = append(matches, ad[pa])
			pa++
			pb++
		}
	}
	return pa, pb, cycles, matches
}

// TestPairBlocksMatchesStepper: the first pass searches inside a block pair
// where the module steps, and charges from where the cursors land. Over the
// edge cases of how two blocks can end against each other, and over random
// sorted blocks from any pair of starting positions, pairBlocks must leave
// both cursors exactly where stepPair does, charge its cycle count, and emit
// its matches with each side's tf in slots 0 and 1.
func TestPairBlocksMatchesStepper(t *testing.T) {
	type pair struct {
		name   string
		a, b   []uint32
		pa, pb int
	}
	seq := func(from, step uint32, n int) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = from + uint32(i)*step
		}
		return out
	}
	cases := []pair{
		{"equal last docIDs", []uint32{3, 9, 20}, []uint32{1, 2, 9, 15, 20}, 0, 0},
		{"every posting matching", seq(10, 3, 128), seq(10, 3, 128), 0, 0},
		{"one-posting blocks, match", []uint32{7}, []uint32{7}, 0, 0},
		{"one-posting blocks, driver below", []uint32{5}, []uint32{7}, 0, 0},
		{"one-posting blocks, driver above", []uint32{9}, []uint32{7}, 0, 0},
		{"one-posting driver inside a full block", []uint32{500}, seq(0, 7, 128), 0, 0},
		{"driver ends before the other block's last posting", []uint32{4, 8, 12}, []uint32{1, 8, 13, 40, 41}, 0, 0},
		{"driver ends after the other block's last posting", []uint32{4, 8, 50, 60}, []uint32{1, 8, 13, 40, 41}, 0, 0},
		{"driver ends on the other block's last posting", []uint32{4, 8, 41}, []uint32{1, 8, 13, 40, 41}, 0, 0},
		{"driver's first posting beyond the whole block", []uint32{900, 901}, seq(0, 7, 128), 0, 0},
		{"driver wholly below the other block's head", seq(0, 1, 64), []uint32{100, 200}, 0, 0},
		{"both cursors mid-block", seq(0, 2, 100), seq(1, 3, 100), 37, 21},
		{"other cursor already beyond the driver's next postings", seq(0, 2, 100), seq(0, 3, 100), 5, 80},
		{"long skip to a late match", []uint32{2, 889}, seq(0, 7, 128), 0, 0},
	}
	rng := rand.New(rand.NewSource(0x9A12))
	for i := 0; i < 4000; i++ {
		// Blocks of 1–128 postings whose gaps differ by up to 64×, so the
		// search runs from single steps to most of a block.
		gen := func() []uint32 {
			n, gap := 1+rng.Intn(128), 1+rng.Intn(1<<uint(rng.Intn(7)))
			out := make([]uint32, n)
			d := uint32(rng.Intn(64))
			for j := range out {
				d += 1 + uint32(rng.Intn(gap))
				out[j] = d
			}
			return out
		}
		p := pair{name: fmt.Sprintf("random %d", i), a: gen(), b: gen()}
		p.pa, p.pb = rng.Intn(len(p.a)), rng.Intn(len(p.b))
		cases = append(cases, p)
	}
	tfsOf := func(docs []uint32, salt uint32) []uint32 {
		out := make([]uint32, len(docs))
		for i, d := range docs {
			out[i] = d*2 + salt
		}
		return out
	}
	var matched, whole int
	for i, p := range cases {
		n := 2 + i%3
		wantA, wantB, wantCycles, wantDocs := stepPair(p.a, p.b, p.pa, p.pb)
		r := &run{}
		a, b := cursor{docs: p.a, tfs: tfsOf(p.a, 1)}, cursor{docs: p.b, tfs: tfsOf(p.b, 2)}
		a.seek(p.pa)
		b.seek(p.pb)
		cycles := r.pairBlocks(&a, &b, n)
		if a.pos != wantA || b.pos != wantB || cycles != wantCycles {
			t.Fatalf("%s: cursors at %d/%d after %d cycles; the stepper stops at %d/%d after %d", p.name, a.pos, b.pos, cycles, wantA, wantB, wantCycles)
		}
		for _, c := range []*cursor{&a, &b} {
			want := noDoc
			if c.pos < len(c.docs) {
				want = uint64(c.docs[c.pos])
			}
			if c.cur != want {
				t.Fatalf("%s: cursor's docID %d out of step with position %d", p.name, c.cur, c.pos)
			}
		}
		if len(r.candDocs) != len(wantDocs) || len(r.candTFs) != n*len(wantDocs) {
			t.Fatalf("%s: %d rows over %d tfs, want %d rows of %d slots", p.name, len(r.candDocs), len(r.candTFs), len(wantDocs), n)
		}
		for k, d := range wantDocs {
			row := r.candTFs[k*n : k*n+n]
			if r.candDocs[k] != d || row[0] != d*2+1 || row[1] != d*2+2 {
				t.Fatalf("%s: row %d is doc %d tfs %v, want doc %d tfs [%d %d …]", p.name, k, r.candDocs[k], row, d, d*2+1, d*2+2)
			}
		}
		matched += len(wantDocs)
		if wantB-p.pb > 64 {
			whole++
		}
	}
	if matched == 0 || whole == 0 {
		t.Fatalf("the cases produced %d matches and %d long skips: the table exercised nothing", matched, whole)
	}
}

// conjShapeExpr renders the fuzzer's query over the given term ranks: shape 0
// a pure conjunction, 1 the first term distributed over a union of the rest,
// 2 the first term alone beside a conjunction of the rest (the single-term
// conjunct), 3 a conjunction whose last term repeats its first.
func conjShapeExpr(shape int, ranks []int) string {
	terms := quotedTerms(ranks)
	switch shape {
	case 1:
		return terms[0] + " AND (" + strings.Join(terms[1:], " OR ") + ")"
	case 2:
		return terms[0] + " OR (" + strings.Join(terms[1:], " AND ") + ")"
	case 3:
		terms[len(terms)-1] = terms[0]
	}
	return strings.Join(terms, " AND ")
}

// FuzzConjVsBruteForce is TestIntersectByteIdentical over corpora the fuzzer
// picks: seed shapes a tiny dense corpus (64–319 documents, 4–8 terms, 4–35
// postings per block) and shuffles the term order; shapeBits choose the term
// count (bits 0–1: 2–4; a fourth value wraps to 2), the expression
// (bits 2–3: conjShapeExpr), Q16.16 scoring (bit 4) and SpillIntermediates
// (bit 5). The run must equal the brute-force evaluator entry by entry, and a
// cached accelerator — cold, then warm — must return the same entries and
// decode exactly the postings and blocks the uncached one does.
func FuzzConjVsBruteForce(f *testing.F) {
	f.Add(int64(1), uint16(10), uint8(0))
	f.Add(int64(2), uint16(1), uint8(0b010110))
	f.Add(int64(0xB055), uint16(100), uint8(0b101001))
	f.Add(int64(-7), uint16(3), uint8(0b001100))
	f.Add(int64(977), uint16(1000), uint8(0b111110))
	f.Add(int64(42), uint16(5), uint8(0b000101))
	f.Fuzz(func(t *testing.T, seed int64, k uint16, shapeBits uint8) {
		rng := rand.New(rand.NewSource(seed))
		vocab := 4 + rng.Intn(5)
		c := corpus.Generate(denseUnionSpec(64+rng.Intn(256), vocab, seed))
		idx := index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid, BlockSize: 4 + rng.Intn(32)})
		n := 2 + int(shapeBits&3)%3
		node := query.MustParse(conjShapeExpr(int(shapeBits>>2&3), rng.Perm(vocab)[:n]))
		opts := DefaultOptions()
		opts.FixedPoint = shapeBits&16 != 0
		opts.SpillIntermediates = shapeBits&32 != 0
		kk := 1 + int(k)%1024

		plain, err := New(idx, opts).Exec(nil, node.Plan(), kk)
		if err != nil {
			t.Fatalf("%s: %v", node, err)
		}
		want := oracle.Eval(c, idx, node.Plan(), kk, opts.FixedPoint)
		requireSameTopK(t, fmt.Sprintf("%s k=%d %+v vs brute force", node, kk, opts), plain.TopK, want)

		cached := NewCached(idx, opts, cache.NewSharded(1<<20, 2))
		for _, pass := range []string{"cold", "warm"} {
			res, err := cached.Exec(nil, node.Plan(), kk)
			if err != nil {
				t.Fatalf("%s (%s cache): %v", node, pass, err)
			}
			requireSameTopK(t, fmt.Sprintf("%s k=%d %+v %s cache vs none", node, kk, opts, pass), res.TopK, plain.TopK)
			if res.M.PostingsDecoded != plain.M.PostingsDecoded || res.M.BlocksFetched != plain.M.BlocksFetched {
				t.Fatalf("%s %+v, %s cache: decoded %d postings in %d blocks, uncached %d in %d", node, opts, pass,
					res.M.PostingsDecoded, res.M.BlocksFetched, plain.M.PostingsDecoded, plain.M.BlocksFetched)
			}
		}
		if st := cached.Cache().Stats(); st.PinnedEntries != 0 {
			t.Fatalf("%s: %d cache entries left pinned", node, st.PinnedEntries)
		}
	})
}

// BenchmarkRunConj is the intersection module's microbenchmark and, since
// bench/ has no -cpuprofile flag, its profiling entry point:
//
//	go test -run NONE -bench RunConj -cpuprofile cpu.out ./internal/core
//
// It replays the conj-fit workload's shapes below the pool: the bench corpus,
// Zipf-sampled Q2/Q4 conjunctions at k = 10, a warm cache that holds the
// working set; the mixed sub-benchmark is ranked-or's Q6 share at its k = 100.
// postings/op is PostingsDecoded, so ns/posting is the per-decoded-posting
// cost ROADMAP item 5 tracks, the number to read beside BenchmarkRunUnion's
// and BenchmarkRunSparse's; docs/op is the documents scored, blocks/op the
// blocks fetched.
func BenchmarkRunConj(b *testing.B) {
	c := corpus.Generate(corpus.ClueWebLike(0.25))
	idx := index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid})
	stream := func(n int, qts ...corpus.QueryType) [][][]string {
		var dnfs [][][]string
		for _, qt := range qts {
			for _, q := range corpus.SampleZipfQueries(c, qt, n, 1.07, 42) {
				dnfs = append(dnfs, query.MustParse(q.Expr).DNF())
			}
		}
		// Interleave the shapes so any b.N sees the same mix.
		rand.New(rand.NewSource(42)).Shuffle(len(dnfs), func(i, j int) { dnfs[i], dnfs[j] = dnfs[j], dnfs[i] })
		return dnfs
	}
	for _, bc := range []struct {
		name string
		dnfs [][][]string
		k    int
	}{
		{"conj", stream(256, corpus.Q2, corpus.Q4), 10},
		{"mixed", stream(256, corpus.Q6), 100},
	} {
		b.Run(bc.name, func(b *testing.B) {
			acc := NewCached(idx, DefaultOptions(), cache.NewSharded(256<<20, 2))
			for _, dnf := range bc.dnfs { // warm the cache and the pooled run
				if _, err := acc.Exec(nil, query.Plan{DNF: dnf}, bc.k); err != nil {
					b.Fatal(err)
				}
			}
			var postings, docs, blocks int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := acc.Exec(nil, query.Plan{DNF: bc.dnfs[i%len(bc.dnfs)]}, bc.k)
				if err != nil {
					b.Fatal(err)
				}
				postings += res.M.PostingsDecoded
				docs += res.M.DocsEvaluated
				blocks += res.M.BlocksFetched
			}
			b.ReportMetric(float64(postings)/float64(b.N), "postings/op")
			b.ReportMetric(float64(docs)/float64(b.N), "docs/op")
			b.ReportMetric(float64(blocks)/float64(b.N), "blocks/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(postings), "ns/posting")
		})
	}
}
