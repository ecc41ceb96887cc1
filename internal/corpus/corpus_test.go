package corpus

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestGenerateStreamKinds(t *testing.T) {
	for _, kind := range AllStreamKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			s := GenerateStream(kind, 5000, 1)
			if len(s) != 5000 {
				t.Fatalf("got %d values, want 5000", len(s))
			}
		})
	}
}

func TestGenerateStreamDeterministic(t *testing.T) {
	a := GenerateStream(ZipfStream, 1000, 42)
	b := GenerateStream(ZipfStream, 1000, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different streams")
		}
	}
	c := GenerateStream(ZipfStream, 1000, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestUniformStreamStatistics(t *testing.T) {
	// n uniform values over [0, 2^26): mean delta should be near 2^26/n.
	n := 20000
	s := GenerateStream(UniformDense, n, 7)
	var sum float64
	for _, d := range s {
		sum += float64(d)
	}
	mean := sum / float64(n)
	expected := float64(1<<26) / float64(n)
	if mean < expected/2 || mean > expected*2 {
		t.Fatalf("uniform-dense mean delta %.1f, expected around %.1f", mean, expected)
	}
}

func TestSparseDeltasLargerThanDense(t *testing.T) {
	n := 20000
	sparse := GenerateStream(UniformSparse, n, 7)
	dense := GenerateStream(UniformDense, n, 7)
	var ss, sd float64
	for i := 0; i < n; i++ {
		ss += float64(sparse[i])
		sd += float64(dense[i])
	}
	if ss <= sd {
		t.Fatal("sparse stream deltas should be larger on average than dense")
	}
}

func TestClusteredStreamHasSmallMedianDelta(t *testing.T) {
	// Clustering concentrates docIDs, so the median delta must be far below
	// the uniform stream's mean delta.
	n := 20000
	s := GenerateStream(ClusterSparse, n, 3)
	small := 0
	uniformMean := float64(1<<28) / float64(n)
	for _, d := range s {
		if float64(d) < uniformMean/4 {
			small++
		}
	}
	if small < n/2 {
		t.Fatalf("only %d/%d clustered deltas are small; clustering not effective", small, n)
	}
}

func TestOutlierStreams(t *testing.T) {
	n := 20000
	s10 := GenerateStream(Outlier10, n, 5)
	s30 := GenerateStream(Outlier30, n, 5)
	count := func(s []uint32) int {
		c := 0
		for _, v := range s {
			if v > 1000 { // far beyond normal(32,20)
				c++
			}
		}
		return c
	}
	c10, c30 := count(s10), count(s30)
	if c10 < n*5/100 || c10 > n*15/100 {
		t.Fatalf("outlier-10%% stream has %d/%d outliers", c10, n)
	}
	if c30 < n*25/100 || c30 > n*35/100 {
		t.Fatalf("outlier-30%% stream has %d/%d outliers", c30, n)
	}
}

func TestGenerateCorpus(t *testing.T) {
	spec := CCNewsLike(0.01)
	c := Generate(spec)
	if len(c.Terms) != spec.NumTerms {
		t.Fatalf("got %d terms, want %d", len(c.Terms), spec.NumTerms)
	}
	if len(c.DocLens) != spec.NumDocs {
		t.Fatalf("got %d doc lens, want %d", len(c.DocLens), spec.NumDocs)
	}
	if c.AvgDocLen <= 0 {
		t.Fatal("average document length must be positive")
	}

	// Document frequencies must be non-increasing-ish with rank (Zipf).
	if c.DF(0) < c.DF(len(c.Terms)-1) {
		t.Fatal("df should broadly decrease with rank")
	}
	if c.DF(0) < spec.NumDocs/10 {
		t.Fatalf("top term df %d too small for %d docs", c.DF(0), spec.NumDocs)
	}

	// Posting lists are sorted, distinct, in range, with tf in [1, MaxTF].
	for _, tp := range c.Terms[:50] {
		prev := int64(-1)
		for _, p := range tp.Postings {
			if int64(p.DocID) <= prev {
				t.Fatalf("term %s postings not strictly increasing", tp.Term)
			}
			prev = int64(p.DocID)
			if int(p.DocID) >= spec.NumDocs {
				t.Fatalf("docID %d out of range", p.DocID)
			}
			if p.TF < 1 || int(p.TF) > spec.MaxTF {
				t.Fatalf("tf %d out of range", p.TF)
			}
		}
	}

	// Doc lengths cover at least the tf mass charged to each doc (they are
	// padded upward by the region-correlated length model).
	perDoc := make([]uint64, spec.NumDocs)
	for _, tp := range c.Terms {
		for _, p := range tp.Postings {
			perDoc[p.DocID] += uint64(p.TF)
		}
	}
	for d, l := range c.DocLens {
		if uint64(l) < perDoc[d] {
			t.Fatalf("doc %d length %d below its tf mass %d", d, l, perDoc[d])
		}
	}
}

func TestCorpusTermLookup(t *testing.T) {
	c := Generate(CCNewsLike(0.005))
	if got := c.Term("t0"); len(got) != c.DF(0) {
		t.Fatalf("Term(t0) returned %d postings, DF(0)=%d", len(got), c.DF(0))
	}
	if c.Term("nosuchterm") != nil {
		t.Fatal("missing term should return nil")
	}
}

func TestQueryTypes(t *testing.T) {
	wantTerms := map[QueryType]int{Q1: 1, Q2: 2, Q3: 2, Q4: 4, Q5: 4, Q6: 4}
	for qt, n := range wantTerms {
		if qt.NumTerms() != n {
			t.Errorf("%s.NumTerms() = %d, want %d", qt, qt.NumTerms(), n)
		}
	}
	if Q6.Operation() != "A AND (B OR C OR D)" {
		t.Errorf("Q6 operation = %q", Q6.Operation())
	}
	if Q3.String() != "Q3" {
		t.Errorf("String() = %q", Q3.String())
	}
}

func TestSampleQueries(t *testing.T) {
	c := Generate(CCNewsLike(0.005))
	for _, qt := range AllQueryTypes() {
		qs := SampleQueries(c, qt, 20, 99)
		if len(qs) != 20 {
			t.Fatalf("%s: got %d queries", qt, len(qs))
		}
		for _, q := range qs {
			if len(q.Terms) != qt.NumTerms() {
				t.Fatalf("%s query has %d terms", qt, len(q.Terms))
			}
			seen := map[string]bool{}
			for _, term := range q.Terms {
				if seen[term] {
					t.Fatalf("%s query repeats term %s", qt, term)
				}
				seen[term] = true
				if c.Term(term) == nil {
					t.Fatalf("query term %s not in corpus", term)
				}
				if !strings.Contains(q.Expr, `"`+term+`"`) {
					t.Fatalf("expr %q missing term %s", q.Expr, term)
				}
			}
		}
	}
}

func TestSampleQueriesDeterministic(t *testing.T) {
	c := Generate(CCNewsLike(0.005))
	a := SampleQueries(c, Q4, 10, 1)
	b := SampleQueries(c, Q4, 10, 1)
	for i := range a {
		if a[i].Expr != b[i].Expr {
			t.Fatal("same seed produced different queries")
		}
	}
}

func TestSampleWorkload(t *testing.T) {
	c := Generate(CCNewsLike(0.005))
	w := SampleWorkload(c, 5, 1)
	if len(w) != 6 {
		t.Fatalf("workload has %d types", len(w))
	}
	for qt, qs := range w {
		if len(qs) != 5 {
			t.Fatalf("%s has %d queries", qt, len(qs))
		}
	}
}

func TestBuildExprQ6(t *testing.T) {
	got := buildExpr(Q6, []string{"w", "x", "y", "z"})
	want := `"w" AND ("x" OR "y" OR "z")`
	if got != want {
		t.Fatalf("buildExpr = %q, want %q", got, want)
	}
}

func TestLogUniformIntProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(maxSeed uint16) bool {
		max := int(maxSeed)%1000 + 1
		v := logUniformInt(rng, max)
		return v >= 1 && v <= max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDeltasOfProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		// Build a sorted distinct slice from raw.
		seen := map[uint32]bool{}
		var vals []uint32
		for _, v := range raw {
			if !seen[v] {
				seen[v] = true
				vals = append(vals, v)
			}
		}
		for i := 1; i < len(vals); i++ {
			for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
				vals[j], vals[j-1] = vals[j-1], vals[j]
			}
		}
		d := deltasOf(vals)
		// Reconstruct.
		acc := uint32(0)
		for i, g := range d {
			acc += g
			if acc != vals[i] {
				return false
			}
		}
		return len(d) == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkGenerate times the corpus every bench run generates first,
// ClueWebLike(0.25).
func BenchmarkGenerate(b *testing.B) {
	spec := ClueWebLike(0.25)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchCorpus = Generate(spec)
	}
}

// benchCorpus keeps BenchmarkGenerate's result live.
var benchCorpus *Corpus
