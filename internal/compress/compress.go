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
	"sync"
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

// AllSchemes lists every concrete scheme in a stable order.
func AllSchemes() []Scheme {
	return []Scheme{BP, VB, PFD, OptPFD, S16, S8b}
}

// sizingBufPool recycles the throwaway byte buffers EncodedSize and
// ChooseBest encode into. Hybrid index builds size every block under every
// candidate scheme, so these buffers otherwise dominate build allocations.
var sizingBufPool = sync.Pool{New: func() any { return new([]byte) }}

// EncodedSize reports the number of bytes scheme uses for values.
func EncodedSize(s Scheme, values []uint32) int {
	bufp := sizingBufPool.Get().(*[]byte)
	buf := ForScheme(s).Encode((*bufp)[:0], values)
	n := len(buf)
	*bufp = buf
	sizingBufPool.Put(bufp)
	return n
}

// ChooseBest returns the concrete scheme with the smallest encoding for
// values, considering only schemes that can represent every value. Ties go to
// the earlier scheme in AllSchemes order. candidates may be nil, meaning all
// schemes.
func ChooseBest(values []uint32, candidates []Scheme) (Scheme, int) {
	if candidates == nil {
		candidates = AllSchemes()
	}
	best := Scheme(0xFE)
	bestSize := -1
	bufp := sizingBufPool.Get().(*[]byte)
	for _, s := range candidates {
		c := ForScheme(s)
		if !c.Supports(values) {
			continue
		}
		buf := c.Encode((*bufp)[:0], values)
		size := len(buf)
		*bufp = buf
		if bestSize < 0 || size < bestSize {
			best, bestSize = s, size
		}
	}
	sizingBufPool.Put(bufp)
	if bestSize < 0 {
		// Every value fits VB (full uint32 range), so this cannot happen
		// unless candidates excluded all viable schemes.
		panic("compress: no candidate scheme supports the values")
	}
	return best, bestSize
}

// CompressionRatio reports raw size (4 bytes per value) divided by encoded
// size. Larger is better. A zero encodedSize reports 0.
func CompressionRatio(valueCount, encodedSize int) float64 {
	if encodedSize <= 0 {
		return 0
	}
	return float64(4*valueCount) / float64(encodedSize)
}

// DeltaEncode rewrites sorted values in place as d-gaps: out[0] = in[0]-base,
// out[i] = in[i]-in[i-1]. It panics if the input is not non-decreasing from
// base (inverted-index docIDs are strictly increasing, but ties are
// tolerated here so the function is usable for tf streams too).
func DeltaEncode(values []uint32, base uint32) {
	prev := base
	for i, v := range values {
		if v < prev {
			panic(fmt.Sprintf("compress: DeltaEncode input not sorted at %d: %d < %d", i, v, prev))
		}
		values[i] = v - prev
		prev = v
	}
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

// maxBitWidth reports the widest bitWidth over values.
func maxBitWidth(values []uint32) int {
	w := 0
	for _, v := range values {
		if bw := bitWidth(v); bw > w {
			w = bw
		}
	}
	return w
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
