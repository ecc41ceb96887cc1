package score

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIDF(t *testing.T) {
	// A term in half the documents: ln((N/2+0.5)/(N/2+0.5)+1) = ln 2.
	got := IDF(1000, 500)
	if math.Abs(got-math.Log(2)) > 1e-9 {
		t.Fatalf("IDF(1000,500) = %v, want ln 2", got)
	}
	// Rarer terms have higher IDF.
	if IDF(1000, 1) <= IDF(1000, 100) {
		t.Fatal("IDF must decrease with document frequency")
	}
	// IDF is always positive with the +1 smoothing.
	if IDF(10, 10) <= 0 {
		t.Fatal("smoothed IDF must stay positive even for ubiquitous terms")
	}
}

func TestDocNorm(t *testing.T) {
	p := DefaultParams()
	// An average-length document: norm = k1 exactly.
	if got := p.DocNorm(100, 100); math.Abs(got-p.K1) > 1e-12 {
		t.Fatalf("norm of avg-length doc = %v, want k1=%v", got, p.K1)
	}
	// Longer documents get a larger norm (more penalty).
	if p.DocNorm(200, 100) <= p.DocNorm(50, 100) {
		t.Fatal("norm must grow with document length")
	}
}

func TestTermScoreMatchesClosedForm(t *testing.T) {
	p := DefaultParams()
	N, df := 100000, 250
	docLen, avgdl := uint32(120), 95.0
	tf := uint32(3)

	idf := IDF(N, df)
	norm := p.DocNorm(docLen, avgdl)
	got := p.TermScore(idf, tf, norm)

	f := float64(tf)
	want := idf * (f * (p.K1 + 1)) / (f + p.K1*(1-p.B+p.B*float64(docLen)/avgdl))
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("TermScore = %v, want %v", got, want)
	}
}

func TestTermScoreSaturatesWithTF(t *testing.T) {
	p := DefaultParams()
	idf := 2.0
	norm := p.DocNorm(100, 100)
	prev := 0.0
	for tf := uint32(1); tf <= 64; tf *= 2 {
		s := p.TermScore(idf, tf, norm)
		if s <= prev {
			t.Fatalf("score must increase with tf (tf=%d)", tf)
		}
		prev = s
	}
	if prev >= p.MaxTermScore(idf) {
		t.Fatalf("score %v must stay below the saturation bound %v", prev, p.MaxTermScore(idf))
	}
}

func TestMaxTermScoreIsUpperBound(t *testing.T) {
	p := DefaultParams()
	f := func(tfSeed uint8, lenSeed uint16) bool {
		tf := uint32(tfSeed) + 1
		docLen := uint32(lenSeed) + 1
		idf := 1.5
		norm := p.DocNorm(docLen, 100)
		return p.TermScore(idf, tf, norm) <= p.MaxTermScore(idf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFixedConversions(t *testing.T) {
	cases := []float64{0, 1, -1, 0.5, 3.14159, 123.456, -42.25}
	for _, f := range cases {
		x := ToFixed(f)
		if math.Abs(x.Float()-f) > 1.0/65536 {
			t.Errorf("round trip of %v = %v", f, x.Float())
		}
	}
	if One.Float() != 1.0 {
		t.Fatal("One != 1.0")
	}
}

func TestFixedMulDiv(t *testing.T) {
	a, b := ToFixed(3.5), ToFixed(2.0)
	if got := a.Mul(b).Float(); math.Abs(got-7.0) > 1e-3 {
		t.Fatalf("3.5*2 = %v", got)
	}
	if got := a.Div(b).Float(); math.Abs(got-1.75) > 1e-3 {
		t.Fatalf("3.5/2 = %v", got)
	}
	// Division by zero saturates rather than panicking (hardware behavior).
	if got := a.Div(0); got != Fixed(math.MaxInt32) {
		t.Fatalf("div by zero = %v, want saturation", got)
	}
}

func TestFixedSaturation(t *testing.T) {
	big := ToFixed(30000)
	if got := big.Div(Fixed(1)); got != Fixed(math.MaxInt32) {
		t.Fatalf("overflowing quotient = %v, want positive saturation", got)
	}
	if got := big.Div(Fixed(-1)); got != Fixed(math.MinInt32) {
		t.Fatalf("overflowing negative quotient = %v, want negative saturation", got)
	}
	if got := big.Mul(big); got != Fixed(math.MaxInt32) {
		t.Fatalf("overflowing product = %v, want positive saturation", got)
	}
	if got := big.Mul(-big); got != Fixed(math.MinInt32) {
		t.Fatalf("overflowing negative product = %v, want negative saturation", got)
	}
}

func TestFixedMulDivProperty(t *testing.T) {
	f := func(aSeed, bSeed int16) bool {
		a := Fixed(aSeed) * 97
		b := Fixed(bSeed)
		// Keep |b| large enough that the quotient stays in range; tiny
		// divisors saturate (covered by TestFixedSaturation).
		if b > -256 && b < 256 {
			return true
		}
		// (a/b)*b should be within rounding distance of a.
		got := a.Div(b).Mul(b)
		diff := int64(got) - int64(a)
		if diff < 0 {
			diff = -diff
		}
		// Each operation can lose up to 1 ulp scaled by |b|.
		bound := int64(b)
		if bound < 0 {
			bound = -bound
		}
		return diff <= bound+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestFixedTermScoreMatchesFloat(t *testing.T) {
	p := DefaultParams()
	for _, tc := range []struct {
		idf  float64
		tf   uint32
		norm float64
	}{
		{2.5, 1, 1.2}, {0.3, 10, 0.9}, {8.0, 3, 2.4}, {14.0, 64, 0.31},
	} {
		want := p.TermScore(tc.idf, tc.tf, tc.norm)
		got := p.FixedTermScore(ToFixed(tc.idf), tc.tf, ToFixed(tc.norm)).Float()
		if math.Abs(got-want) > 0.01*math.Max(want, 1) {
			t.Errorf("fixed term score (idf=%v tf=%d norm=%v) = %v, want %v",
				tc.idf, tc.tf, tc.norm, got, want)
		}
	}
}

func TestFixedTermScoreMonotonicInTF(t *testing.T) {
	p := DefaultParams()
	idf := ToFixed(3.0)
	norm := ToFixed(1.1)
	prev := Fixed(-1)
	for tf := uint32(1); tf < 40; tf++ {
		s := p.FixedTermScore(idf, tf, norm)
		if s < prev {
			t.Fatalf("fixed score decreased at tf=%d", tf)
		}
		prev = s
	}
}

// MaxTermScore computes the largest possible contribution of a term for any
// document: the limit of TermScore as tf grows with the smallest norm. Used
// as a conservative upper bound when a true per-list maximum is not yet
// known.
func (p Params) MaxTermScore(idf float64) float64 {
	return idf * (p.K1 + 1)
}
