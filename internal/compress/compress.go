// Package compress implements the inverted-index compression schemes
// evaluated by the BOSS paper: Bit-Packing (BP), VariableByte (VB),
// PForDelta (PFD), OptPForDelta (OptPFD), Simple16 (S16) and Simple8b (S8b),
// plus the "hybrid" strategy that picks the best scheme per posting list.
//
// All codecs encode small non-negative integers (typically docID deltas, also
// called d-gaps). Encoding operates on a slice of uint32 values and produces
// a self-contained byte payload; decoding requires the value count, which the
// index stores in per-block metadata exactly as the paper's hardware does.
package compress

import (
	"fmt"
	"math/bits"
)

// Scheme identifies a compression scheme.
type Scheme uint8

// The supported schemes. SchemeHybrid is a meta-scheme: the index picks the
// best concrete scheme per posting list and records the choice.
const (
	BP Scheme = iota
	VB
	PFD
	OptPFD
	S16
	S8b
	// NumSchemes counts the concrete schemes, so a concrete Scheme indexes
	// a [NumSchemes] array.
	NumSchemes

	SchemeHybrid Scheme = 0xFF
)

// String returns the scheme's conventional short name.
func (s Scheme) String() string {
	switch s {
	case BP:
		return "BP"
	case VB:
		return "VB"
	case PFD:
		return "PFD"
	case OptPFD:
		return "OptPFD"
	case S16:
		return "S16"
	case S8b:
		return "S8b"
	case SchemeHybrid:
		return "Hybrid"
	default:
		return fmt.Sprintf("Scheme(%d)", uint8(s))
	}
}

// Codec encodes and decodes a block of integers.
type Codec interface {
	// Scheme reports which scheme this codec implements.
	Scheme() Scheme
	// Encode appends the encoded form of values to dst and returns the
	// extended slice. Encode panics if a value cannot be represented
	// (use Supports to check first).
	Encode(dst []byte, values []uint32) []byte
	// Decode reads n values from src, appending them to dst. It returns the
	// extended slice and the number of bytes consumed.
	Decode(dst []uint32, src []byte, n int) ([]uint32, int)
	// Supports reports whether every value in values is representable.
	Supports(values []uint32) bool
	// MaxValue reports the largest representable value.
	MaxValue() uint32
}

// ForScheme returns the codec implementing scheme. It panics on
// SchemeHybrid (hybrid is a selection policy, not a codec) and on unknown
// schemes.
func ForScheme(s Scheme) Codec {
	switch s {
	case BP:
		return bpCodec{}
	case VB:
		return vbCodec{}
	case PFD:
		return pfdCodec{opt: false}
	case OptPFD:
		return pfdCodec{opt: true}
	case S16:
		return s16Codec{}
	case S8b:
		return s8bCodec{}
	default:
		panic("compress: no codec for scheme " + s.String())
	}
}

// AllSchemes lists every concrete scheme in a stable order, in a slice the
// caller owns.
func AllSchemes() []Scheme {
	s := allSchemes
	return s[:]
}

var allSchemes = [...]Scheme{BP, VB, PFD, OptPFD, S16, S8b}

// EncodedSize reports the number of bytes scheme uses for values, without
// encoding them. It panics, as Encode does, if scheme cannot represent
// the values.
func EncodedSize(s Scheme, values []uint32) int {
	w := measure(values)
	size, ok := w.encodedSize(s, values)
	if !ok {
		panic("compress: " + s.String() + " cannot represent the values")
	}
	return size
}

// ChooseBest returns the concrete scheme with the smallest encoding for
// values, considering only schemes that can represent every value. Ties go to
// the earlier scheme in AllSchemes order. candidates may be nil, meaning all
// schemes. Sizes are computed, not encoded: one pass over values serves
// every scheme but S16 and S8b, which count their words in one more pass
// each.
func ChooseBest(values []uint32, candidates []Scheme) (Scheme, int) {
	if candidates == nil {
		candidates = allSchemes[:]
	}
	w := measure(values)
	best := Scheme(0xFE)
	bestSize := -1
	for _, s := range candidates {
		size, ok := w.encodedSize(s, values)
		if ok && (bestSize < 0 || size < bestSize) {
			best, bestSize = s, size
		}
	}
	if bestSize < 0 {
		// Every value fits VB (full uint32 range), so this cannot happen
		// unless candidates excluded all viable schemes.
		panic("compress: no candidate scheme supports the values")
	}
	return best, bestSize
}

// widthProfile is the bit-width profile of a value stream, all that the
// PFD, BP and VB encoders' sizes depend on: atMost[w] counts the values of
// at most w bits (bitWidth), so atMost[32] is the stream's length.
type widthProfile struct {
	atMost [33]int
	max    int // the widest value's bitWidth
}

// measure takes values' bit-width profile in one pass.
func measure(values []uint32) widthProfile {
	var w widthProfile
	for _, v := range values {
		w.atMost[bitWidth(v)]++
	}
	for b := 1; b <= 32; b++ {
		if w.atMost[b] != 0 {
			w.max = b
		}
		w.atMost[b] += w.atMost[b-1]
	}
	return w
}

// n is the stream's length.
func (w *widthProfile) n() int { return w.atMost[32] }

// wider counts the values of more than b bits; b may exceed 32.
func (w *widthProfile) wider(b int) int {
	if b >= 32 {
		return 0
	}
	return w.n() - w.atMost[b]
}

// encodedSize reports the exact length of scheme s's encoding of values,
// whose profile w is, or false if s cannot represent them (Supports).
func (w *widthProfile) encodedSize(s Scheme, values []uint32) (int, bool) {
	switch s {
	case BP:
		return 1 + packedLen(w.n(), w.max), true
	case VB:
		// One byte per value, plus one per 7 bits beyond the first 7.
		size := w.n()
		for b := 7; b < 32; b += 7 {
			size += w.wider(b)
		}
		return size, true
	case PFD, OptPFD:
		if w.n() > pfdMaxValues {
			return 0, false
		}
		return w.pfdSize(pfdCodec{opt: s == OptPFD}.chooseB(w)), true
	case S16:
		if w.max > 28 {
			return 0, false
		}
		return 4 * s16Words(values), true
	case S8b:
		return 8 * s8bWords(values), true
	default:
		panic("compress: no codec for scheme " + s.String())
	}
}

// CompressionRatio reports raw size (4 bytes per value) divided by encoded
// size. Larger is better. A zero encodedSize reports 0.
func CompressionRatio(valueCount, encodedSize int) float64 {
	if encodedSize <= 0 {
		return 0
	}
	return float64(4*valueCount) / float64(encodedSize)
}

// DeltaDecode is the inverse of DeltaEncode.
func DeltaDecode(deltas []uint32, base uint32) {
	prev := base
	for i, d := range deltas {
		prev += d
		deltas[i] = prev
	}
}

// bitWidth reports the number of bits needed to represent v (0 for v==0).
func bitWidth(v uint32) int {
	return bits.Len32(v)
}

// packBits appends values packed at width bits each (LSB-first within a
// little-endian bit stream) to dst. width may be 0 (nothing appended).
func packBits(dst []byte, values []uint32, width int) []byte {
	if width == 0 {
		return dst
	}
	var acc uint64
	accBits := 0
	for _, v := range values {
		acc |= uint64(v&((1<<uint(width))-1)) << uint(accBits)
		accBits += width
		for accBits >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			accBits -= 8
		}
	}
	if accBits > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// packedLen reports the byte length of n values packed at width bits.
func packedLen(n, width int) int {
	return (n*width + 7) / 8
}
