package iiu

import (
	"testing"

	"boss/internal/compress"
	"boss/internal/corpus"
	"boss/internal/index"
	"boss/internal/mem"
	"boss/internal/oracle"
	"boss/internal/query"
)

type fixture struct {
	c   *corpus.Corpus
	idx *index.Index
	acc *Accelerator
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	c := corpus.Generate(corpus.CCNewsLike(0.004))
	idx := index.Build(c, index.BuildOptions{Scheme: compress.BP}) // IIU's fixed scheme
	return &fixture{c: c, idx: idx, acc: New(idx)}
}

func TestIIUUnknownTerm(t *testing.T) {
	f := newFixture(t)
	for _, expr := range []string{`"missing"`, `"t0" AND "missing"`, `"t0" OR "missing"`} {
		if _, err := f.acc.Run(query.MustParse(expr), 10); err == nil {
			t.Fatalf("%s: expected error", expr)
		}
	}
}

func TestIIUUnionReadsEverything(t *testing.T) {
	// IIU has no pruning: a union loads every block of every term and
	// scores every matching document.
	f := newFixture(t)
	a, b := f.c.Terms[2].Term, f.c.Terms[5].Term
	res, err := f.acc.Run(query.MustParse(`"`+a+`" OR "`+b+`"`), 10)
	if err != nil {
		t.Fatal(err)
	}
	wantBlocks := int64(len(f.idx.MustList(a).Blocks) + len(f.idx.MustList(b).Blocks))
	if res.M.BlocksFetched != wantBlocks {
		t.Fatalf("fetched %d blocks, exhaustive union needs %d", res.M.BlocksFetched, wantBlocks)
	}
}

func TestIIUStoresFullResultList(t *testing.T) {
	f := newFixture(t)
	term := f.c.Terms[3].Term
	res, err := f.acc.Run(query.MustParse(`"`+term+`"`), 10)
	if err != nil {
		t.Fatal(err)
	}
	df := int64(f.idx.MustList(term).DF)
	if got := res.M.Cat[mem.CatStoreResult]; got != df*resultEntryBytes {
		t.Fatalf("ST Result = %d bytes, want %d (df=%d × 8B)", got, df*resultEntryBytes, df)
	}
	if res.M.HostBytes != df*resultEntryBytes {
		t.Fatalf("host traffic = %d, want full scored list", res.M.HostBytes)
	}
	if res.M.DocsEvaluated != df {
		t.Fatalf("evaluated %d docs, want all %d", res.M.DocsEvaluated, df)
	}
}

func TestIIUIntersectionUsesRandomAccess(t *testing.T) {
	f := newFixture(t)
	a, b := f.c.Terms[1].Term, f.c.Terms[4].Term
	res, err := f.acc.Run(query.MustParse(`"`+a+`" AND "`+b+`"`), 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.M.RandAccesses == 0 || res.M.DependentRandAccesses == 0 {
		t.Fatal("binary-search intersection must produce dependent random accesses")
	}
	if res.M.MembershipProbes == 0 {
		t.Fatal("membership probes not counted")
	}
}

func TestIIUMultiTermSpillsIntermediates(t *testing.T) {
	f := newFixture(t)
	// A 4-term AND among common terms produces nonempty intermediates.
	terms := []string{f.c.Terms[0].Term, f.c.Terms[1].Term, f.c.Terms[2].Term, f.c.Terms[3].Term}
	expr := `"` + terms[0] + `" AND "` + terms[1] + `" AND "` + terms[2] + `" AND "` + terms[3] + `"`
	res, err := f.acc.Run(query.MustParse(expr), 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Cat[mem.CatStoreInter] == 0 || res.M.Cat[mem.CatLoadInter] == 0 {
		t.Fatalf("multi-term AND must spill intermediates (got ST=%d LD=%d)",
			res.M.Cat[mem.CatStoreInter], res.M.Cat[mem.CatLoadInter])
	}
	if res.M.Cat[mem.CatStoreInter] != res.M.Cat[mem.CatLoadInter] {
		t.Fatal("every spilled byte must be re-loaded exactly once")
	}
}

func TestIIUTwoTermANDDoesNotSpill(t *testing.T) {
	f := newFixture(t)
	a, b := f.c.Terms[1].Term, f.c.Terms[2].Term
	res, err := f.acc.Run(query.MustParse(`"`+a+`" AND "`+b+`"`), 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Cat[mem.CatStoreInter] != 0 {
		t.Fatal("a single intersection pass has no intermediate to spill")
	}
}

func TestIIUMixedQuerySpillsUnion(t *testing.T) {
	f := newFixture(t)
	expr := `"` + f.c.Terms[0].Term + `" AND ("` + f.c.Terms[1].Term + `" OR "` + f.c.Terms[2].Term + `" OR "` + f.c.Terms[3].Term + `")`
	res, err := f.acc.Run(query.MustParse(expr), 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.M.Cat[mem.CatStoreInter] == 0 {
		t.Fatal("the inner union must be materialized to memory")
	}
}

func TestIIUBenefitsMoreFromDRAM(t *testing.T) {
	// Figure 16: IIU's random accesses make it gain more from DRAM than a
	// sequential engine would.
	f := newFixture(t)
	a, b := f.c.Terms[0].Term, f.c.Terms[6].Term
	res, err := f.acc.Run(query.MustParse(`"`+a+`" AND "`+b+`"`), 10)
	if err != nil {
		t.Fatal(err)
	}
	scm := res.M.Latency(mem.SCM())
	dram := res.M.Latency(mem.DRAM())
	if float64(scm)/float64(dram) < 1.5 {
		t.Fatalf("IIU intersection DRAM gain %.2fx, expected well above 1.5x",
			float64(scm)/float64(dram))
	}
}

func TestIIUNormLineBatching(t *testing.T) {
	f := newFixture(t)
	term := f.c.Terms[0].Term
	res, err := f.acc.Run(query.MustParse(`"`+term+`"`), 10)
	if err != nil {
		t.Fatal(err)
	}
	df := int64(f.idx.MustList(term).DF)
	loads := res.M.CatAcc[mem.CatLoadScore]
	if loads == 0 {
		t.Fatal("no norm loads charged")
	}
	if loads > df {
		t.Fatalf("norm line loads (%d) cannot exceed scored docs (%d)", loads, df)
	}
}

func TestIIUDeterministic(t *testing.T) {
	f := newFixture(t)
	node := query.MustParse(`"t1" AND ("t3" OR "t5")`)
	r1, err := f.acc.Run(node, 20)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f.acc.Run(node, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.Same(r1.TopK, r2.TopK); err != nil || r1.M.ComputeTime != r2.M.ComputeTime {
		t.Fatalf("runs not deterministic: %v", err)
	}
}
