// Package score implements Okapi BM25 scoring as used by BOSS: a float64
// reference implementation, the per-document precomputation the paper stores
// as index metadata (so that a term score costs one divide, one multiply and
// one add at query time), and the Q16.16 fixed-point arithmetic the hardware
// scoring module uses.
package score

import "math"

// Params holds the BM25 free parameters.
type Params struct {
	K1 float64 // term-frequency saturation, usually in [1.2, 2.0]
	B  float64 // length normalization, usually 0.75
}

// DefaultParams returns the parameters used throughout the paper's
// evaluation (k1 = 1.2, b = 0.75).
func DefaultParams() Params { return Params{K1: 1.2, B: 0.75} }

// IDF computes the BM25 inverse document frequency of a term appearing in n
// of N documents: ln((N - n + 0.5)/(n + 0.5) + 1).
func IDF(totalDocs, docFreq int) float64 {
	n := float64(docFreq)
	N := float64(totalDocs)
	return math.Log((N-n+0.5)/(n+0.5) + 1)
}

// DocNorm computes the per-document invariant sub-expression
// k1 * (1 - b + b*|D|/avgdl). BOSS precomputes this at indexing time and
// stores it as 4 bytes of per-document metadata.
func (p Params) DocNorm(docLen uint32, avgDocLen float64) float64 {
	return p.K1 * (1 - p.B + p.B*float64(docLen)/avgDocLen)
}

// TermScore computes one term's BM25 contribution from the precomputed
// parts: idf * tf*(k1+1) / (tf + norm). This is the paper's 3-operation
// runtime form.
func (p Params) TermScore(idf float64, tf uint32, norm float64) float64 {
	f := float64(tf)
	return idf * (f * (p.K1 + 1)) / (f + norm)
}

// Fixed is a Q16.16 signed fixed-point value, the representation used by
// BOSS's hardware scoring and top-k modules. BM25 scores for realistic
// corpora stay well below 2^15, so Q16.16 has ample headroom.
type Fixed int32

// One is the fixed-point representation of 1.0.
const One Fixed = 1 << 16

// ToFixed converts a float64 to Q16.16, rounding to nearest.
func ToFixed(f float64) Fixed {
	return Fixed(math.Round(f * 65536))
}

// Float converts a Q16.16 value back to float64.
func (x Fixed) Float() float64 { return float64(x) / 65536 }

// Mul multiplies two Q16.16 values, saturating on overflow.
func (x Fixed) Mul(y Fixed) Fixed {
	p := (int64(x) * int64(y)) >> 16
	if p > math.MaxInt32 {
		return Fixed(math.MaxInt32)
	}
	if p < math.MinInt32 {
		return Fixed(math.MinInt32)
	}
	return Fixed(p)
}

// Div divides x by y in Q16.16. Division by zero or quotient overflow
// saturates, mirroring a hardware divider's saturation behavior.
func (x Fixed) Div(y Fixed) Fixed {
	if y == 0 {
		return Fixed(math.MaxInt32)
	}
	q := (int64(x) << 16) / int64(y)
	if q > math.MaxInt32 {
		return Fixed(math.MaxInt32)
	}
	if q < math.MinInt32 {
		return Fixed(math.MinInt32)
	}
	return Fixed(q)
}

// FixedTermScore computes a term score entirely in Q16.16, as the hardware
// scoring module does: one divide, one multiply (plus the constant-folded
// tf*(k1+1) term), matching TermScore to within fixed-point rounding.
func (p Params) FixedTermScore(idf Fixed, tf uint32, norm Fixed) Fixed {
	f := Fixed(tf) * One // exact: tf is a small integer
	num := f.Mul(ToFixed(p.K1 + 1))
	den := f + norm
	return idf.Mul(num.Div(den))
}

// Impact quantization (the Q7 "sparse-dot" family). Each posting list
// quantizes its term scores onto an 8-bit grid scaled to the list's own
// maximum: code = round(s * 255 / listMax). The dequantization step
// listMax/255 is stored once per list as a Q16.16 value, so reading a
// posting's impact at query time is a single integer multiply — no
// per-posting float math, exactly as an impact-ordered accelerator would
// read precomputed quantized weights from the payload.

// ImpactStep returns the per-list dequantization step listMax/255 in
// Q16.16. Lists with any positive score get a positive step (the step is
// clamped up to the smallest representable increment), so a stored code
// of 0 is unambiguous: it only ever means "impact quantized to zero".
func ImpactStep(listMax float64) Fixed {
	if listMax <= 0 {
		return 0
	}
	step := ToFixed(listMax / 255)
	if step == 0 {
		step = 1
	}
	return step
}

// QuantizeImpact maps a term score onto the list's 8-bit impact grid,
// rounding to nearest and clamping to [0, 255].
func QuantizeImpact(s, listMax float64) uint8 {
	if listMax <= 0 || s <= 0 {
		return 0
	}
	q := math.Round(s * 255 / listMax)
	if q > 255 {
		return 255
	}
	return uint8(q)
}

// Impact dequantizes an 8-bit impact code: code * step, computed in
// 64-bit and saturated like the other Q16.16 operations. With step ≤
// MaxInt32 and code ≤ 255 the product fits easily, so saturation only
// guards corrupted inputs.
func Impact(code uint8, step Fixed) Fixed {
	p := int64(code) * int64(step)
	if p > math.MaxInt32 {
		return Fixed(math.MaxInt32)
	}
	return Fixed(p)
}
