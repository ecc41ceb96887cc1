package compress

import (
	"encoding/binary"
	"fmt"
)

// This file holds the one copy of the block-decode inner loops: the
// VariableByte byte stream and the field-structured layouts (packed bit
// fields, PForDelta, Simple16, Simple8b). They are bounds-checked — a
// short or malformed payload is reported as a Fault, never as a panic — and
// write final uint32 values straight into the caller's buffer. The codecs'
// Decode methods and the programmable decompression module's fast path
// (internal/decomp) both run these; the module's netlist path keeps its own
// token extractors and Figure 8 accumulator as the reference the kernels
// are differentially fuzzed against.

// FaultKind names the reason a decode kernel refused a payload.
type FaultKind uint8

const (
	FaultNone            FaultKind = iota
	FaultVBTruncated               // the payload ends after A whole VB values of the B asked for
	FaultS16Truncated              // a Simple16 word runs past the payload end
	FaultS8bTruncated              // a Simple8b word runs past the payload end
	FaultFieldsTruncated           // packed fields: A bytes present, B needed
	FaultPFDHeader                 // payload shorter than the (b, nExc) header
	FaultPFDPositions              // exception position list runs past the payload end
	FaultPFDExceptions             // exception high-bits stream ends inside a value
	FaultPFDPosition               // exception position A is not below the value count
)

// Fault is a decode kernel's refusal; the zero value means success.
type Fault struct {
	Kind FaultKind
	A, B int // detail, per kind
}

// String words the refusal. internal/decomp returns exactly this text
// (prefixed) from both of its decode paths, so it is worded once.
func (f Fault) String() string {
	switch f.Kind {
	case FaultNone:
		return "ok"
	case FaultVBTruncated:
		return fmt.Sprintf("VB payload truncated after %d of %d values", f.A, f.B)
	case FaultS16Truncated:
		return "S16 payload truncated"
	case FaultS8bTruncated:
		return "S8b payload truncated"
	case FaultFieldsTruncated:
		return fmt.Sprintf("packed fields truncated (%d < %d bytes)", f.A, f.B)
	case FaultPFDHeader:
		return "PFD payload too short"
	case FaultPFDPositions:
		return "PFD exception header truncated"
	case FaultPFDExceptions:
		return "PFD exception stream truncated"
	default: // FaultPFDPosition
		return fmt.Sprintf("exception position %d out of range", f.A)
	}
}

// mustDecode is how the Codec.Decode methods, whose signature has no error,
// surface a Fault: index payloads are checksummed before they are decoded,
// so a fault here is a caller bug.
func mustDecode(s Scheme, f Fault) {
	if f.Kind != FaultNone {
		panic("compress: " + s.String() + " decode: " + f.String())
	}
}

// extend lengthens dst by n elements for the caller to overwrite. Callers
// on the serving path pass enough capacity; for the rest the loop grows dst
// a block's worth per step (once, for any block the index builds).
func extend(dst []uint32, n int) []uint32 {
	need := len(dst) + n
	for cap(dst) < need {
		dst = append(dst[:cap(dst)], zeroBlock[:min(need-cap(dst), len(zeroBlock))]...)
	}
	return dst[:need]
}

var zeroBlock [256]uint32

// UnpackBits reads n fields of width bits from src (LSB-first within a
// little-endian bit stream), appending them to dst, and reports the bytes
// consumed. Width 0 yields n zeros and consumes nothing. Fields wider than
// 32 bits (only a corrupt PFD header names such a width) keep their low 32.
//
//boss:hotpath the packed-field inner loop of BP and PFD blocks.
func UnpackBits(dst []uint32, src []byte, n, width int) ([]uint32, int, Fault) {
	if n <= 0 {
		return dst, 0, Fault{}
	}
	need := packedLen(n, width)
	if len(src) < need {
		return nil, 0, Fault{Kind: FaultFieldsTruncated, A: len(src), B: need}
	}
	start := len(dst)
	dst = extend(dst, n)
	out := dst[start:]
	if width == 0 {
		clear(out)
		return dst, 0, Fault{}
	}
	mask := uint64(1)<<uint(width) - 1
	var acc uint64
	accBits := 0
	pos := 0
	for i := range out {
		for accBits < width {
			acc |= uint64(src[pos]) << uint(accBits)
			pos++
			accBits += 8
		}
		out[i] = uint32(acc & mask)
		acc >>= uint(width)
		accBits -= width
	}
	return dst, pos, Fault{}
}

// DecodePFD decodes one PForDelta block of n values (layout in pfd.go),
// appending to dst: the packed low bits, then each exception's high bits
// OR-ed in at its recorded position. It reports the bytes consumed and the
// exception count.
//
//boss:hotpath the PFD/OptPFD per-block decode.
func DecodePFD(dst []uint32, src []byte, n int) (out []uint32, used, nExc int, f Fault) {
	if len(src) < 2 {
		return nil, 0, 0, Fault{Kind: FaultPFDHeader}
	}
	b := int(src[0])
	nExc = int(src[1])
	pos := 2 + nExc
	if len(src) < pos {
		return nil, 0, 0, Fault{Kind: FaultPFDPositions}
	}
	excPos := src[2:pos]
	start := len(dst)
	dst, used, f = UnpackBits(dst, src[pos:], n, b)
	if f.Kind != FaultNone {
		return nil, 0, 0, f
	}
	pos += used
	vals := dst[start:]
	// A truncated exception stream outranks a bad position, whichever comes
	// first in the payload: the whole stream is parsed before any patch.
	badPos := -1
	for _, ep := range excPos {
		var hv uint32
		for {
			if pos >= len(src) {
				return nil, 0, 0, Fault{Kind: FaultPFDExceptions}
			}
			by := src[pos]
			pos++
			hv = hv<<7 | uint32(by&0x7F)
			if by&0x80 != 0 {
				break
			}
		}
		if int(ep) < len(vals) {
			vals[ep] |= hv << uint(b)
		} else if badPos < 0 {
			badPos = int(ep)
		}
	}
	if badPos >= 0 {
		return nil, 0, 0, Fault{Kind: FaultPFDPosition, A: badPos}
	}
	return dst, pos, nExc, Fault{}
}

// DecodeVB decodes n VariableByte values (layout in vb.go), appending to
// dst, and reports the bytes consumed: exactly through the byte that
// completes value n. A value of more than five 7-bit groups keeps its low
// 32 bits. A payload that ends first faults with the count of whole values
// it held.
//
//boss:hotpath the VB per-block decode.
func DecodeVB(dst []uint32, src []byte, n int) ([]uint32, int, Fault) {
	if n <= 0 {
		return dst, 0, Fault{}
	}
	start := len(dst)
	dst = extend(dst, n)
	out := dst[start:]
	pos := 0
	for i := range out {
		var v uint32
		for {
			if pos >= len(src) {
				return nil, 0, Fault{Kind: FaultVBTruncated, A: i, B: n}
			}
			b := src[pos]
			pos++
			v = v<<7 | uint32(b&0x7F)
			if b&0x80 != 0 {
				break
			}
		}
		out[i] = v
	}
	return dst, pos, Fault{}
}

// s16Count is how many values each Simple16 mode packs.
var s16Count = func() (c [16]int) {
	for m, widths := range s16Modes {
		c[m] = len(widths)
	}
	return c
}()

// DecodeS16 decodes n Simple16 values, appending to dst, and reports the
// bytes consumed. Each selector word is one switch case that extracts its
// mode's fields with constant shifts and masks: the layouts are s16Modes',
// written out (TestDecodeS16EveryMode holds every case to the table). A
// partial last word goes through the same case into stack scratch, and its
// leading values are copied.
//
//boss:hotpath the S16 per-block decode.
func DecodeS16(dst []uint32, src []byte, n int) ([]uint32, int, Fault) {
	if n <= 0 {
		return dst, 0, Fault{}
	}
	start := len(dst)
	dst = extend(dst, n)
	out := dst[start:]
	pos := 0
	var tail [28]uint32
	for len(out) > 0 {
		if pos+4 > len(src) {
			return nil, 0, Fault{Kind: FaultS16Truncated}
		}
		w := binary.LittleEndian.Uint32(src[pos:])
		pos += 4
		sel := w >> 28
		o := out
		partial := s16Count[sel] > len(out)
		if partial {
			o = tail[:]
		}
		switch sel {
		case 0: // 28 × 1 bit
			_ = o[27]
			o[0] = w & 0x1
			o[1] = w >> 1 & 0x1
			o[2] = w >> 2 & 0x1
			o[3] = w >> 3 & 0x1
			o[4] = w >> 4 & 0x1
			o[5] = w >> 5 & 0x1
			o[6] = w >> 6 & 0x1
			o[7] = w >> 7 & 0x1
			o[8] = w >> 8 & 0x1
			o[9] = w >> 9 & 0x1
			o[10] = w >> 10 & 0x1
			o[11] = w >> 11 & 0x1
			o[12] = w >> 12 & 0x1
			o[13] = w >> 13 & 0x1
			o[14] = w >> 14 & 0x1
			o[15] = w >> 15 & 0x1
			o[16] = w >> 16 & 0x1
			o[17] = w >> 17 & 0x1
			o[18] = w >> 18 & 0x1
			o[19] = w >> 19 & 0x1
			o[20] = w >> 20 & 0x1
			o[21] = w >> 21 & 0x1
			o[22] = w >> 22 & 0x1
			o[23] = w >> 23 & 0x1
			o[24] = w >> 24 & 0x1
			o[25] = w >> 25 & 0x1
			o[26] = w >> 26 & 0x1
			o[27] = w >> 27 & 0x1
		case 1: // 7 × 2 bits, 14 × 1 bit
			_ = o[20]
			o[0] = w & 0x3
			o[1] = w >> 2 & 0x3
			o[2] = w >> 4 & 0x3
			o[3] = w >> 6 & 0x3
			o[4] = w >> 8 & 0x3
			o[5] = w >> 10 & 0x3
			o[6] = w >> 12 & 0x3
			o[7] = w >> 14 & 0x1
			o[8] = w >> 15 & 0x1
			o[9] = w >> 16 & 0x1
			o[10] = w >> 17 & 0x1
			o[11] = w >> 18 & 0x1
			o[12] = w >> 19 & 0x1
			o[13] = w >> 20 & 0x1
			o[14] = w >> 21 & 0x1
			o[15] = w >> 22 & 0x1
			o[16] = w >> 23 & 0x1
			o[17] = w >> 24 & 0x1
			o[18] = w >> 25 & 0x1
			o[19] = w >> 26 & 0x1
			o[20] = w >> 27 & 0x1
		case 2: // 7 × 1 bit, 7 × 2 bits, 7 × 1 bit
			_ = o[20]
			o[0] = w & 0x1
			o[1] = w >> 1 & 0x1
			o[2] = w >> 2 & 0x1
			o[3] = w >> 3 & 0x1
			o[4] = w >> 4 & 0x1
			o[5] = w >> 5 & 0x1
			o[6] = w >> 6 & 0x1
			o[7] = w >> 7 & 0x3
			o[8] = w >> 9 & 0x3
			o[9] = w >> 11 & 0x3
			o[10] = w >> 13 & 0x3
			o[11] = w >> 15 & 0x3
			o[12] = w >> 17 & 0x3
			o[13] = w >> 19 & 0x3
			o[14] = w >> 21 & 0x1
			o[15] = w >> 22 & 0x1
			o[16] = w >> 23 & 0x1
			o[17] = w >> 24 & 0x1
			o[18] = w >> 25 & 0x1
			o[19] = w >> 26 & 0x1
			o[20] = w >> 27 & 0x1
		case 3: // 14 × 1 bit, 7 × 2 bits
			_ = o[20]
			o[0] = w & 0x1
			o[1] = w >> 1 & 0x1
			o[2] = w >> 2 & 0x1
			o[3] = w >> 3 & 0x1
			o[4] = w >> 4 & 0x1
			o[5] = w >> 5 & 0x1
			o[6] = w >> 6 & 0x1
			o[7] = w >> 7 & 0x1
			o[8] = w >> 8 & 0x1
			o[9] = w >> 9 & 0x1
			o[10] = w >> 10 & 0x1
			o[11] = w >> 11 & 0x1
			o[12] = w >> 12 & 0x1
			o[13] = w >> 13 & 0x1
			o[14] = w >> 14 & 0x3
			o[15] = w >> 16 & 0x3
			o[16] = w >> 18 & 0x3
			o[17] = w >> 20 & 0x3
			o[18] = w >> 22 & 0x3
			o[19] = w >> 24 & 0x3
			o[20] = w >> 26 & 0x3
		case 4: // 14 × 2 bits
			_ = o[13]
			o[0] = w & 0x3
			o[1] = w >> 2 & 0x3
			o[2] = w >> 4 & 0x3
			o[3] = w >> 6 & 0x3
			o[4] = w >> 8 & 0x3
			o[5] = w >> 10 & 0x3
			o[6] = w >> 12 & 0x3
			o[7] = w >> 14 & 0x3
			o[8] = w >> 16 & 0x3
			o[9] = w >> 18 & 0x3
			o[10] = w >> 20 & 0x3
			o[11] = w >> 22 & 0x3
			o[12] = w >> 24 & 0x3
			o[13] = w >> 26 & 0x3
		case 5: // 1 × 4 bits, 8 × 3 bits
			_ = o[8]
			o[0] = w & 0xF
			o[1] = w >> 4 & 0x7
			o[2] = w >> 7 & 0x7
			o[3] = w >> 10 & 0x7
			o[4] = w >> 13 & 0x7
			o[5] = w >> 16 & 0x7
			o[6] = w >> 19 & 0x7
			o[7] = w >> 22 & 0x7
			o[8] = w >> 25 & 0x7
		case 6: // 1 × 3 bits, 4 × 4 bits, 3 × 3 bits
			_ = o[7]
			o[0] = w & 0x7
			o[1] = w >> 3 & 0xF
			o[2] = w >> 7 & 0xF
			o[3] = w >> 11 & 0xF
			o[4] = w >> 15 & 0xF
			o[5] = w >> 19 & 0x7
			o[6] = w >> 22 & 0x7
			o[7] = w >> 25 & 0x7
		case 7: // 7 × 4 bits
			_ = o[6]
			o[0] = w & 0xF
			o[1] = w >> 4 & 0xF
			o[2] = w >> 8 & 0xF
			o[3] = w >> 12 & 0xF
			o[4] = w >> 16 & 0xF
			o[5] = w >> 20 & 0xF
			o[6] = w >> 24 & 0xF
		case 8: // 4 × 5 bits, 2 × 4 bits
			_ = o[5]
			o[0] = w & 0x1F
			o[1] = w >> 5 & 0x1F
			o[2] = w >> 10 & 0x1F
			o[3] = w >> 15 & 0x1F
			o[4] = w >> 20 & 0xF
			o[5] = w >> 24 & 0xF
		case 9: // 2 × 4 bits, 4 × 5 bits
			_ = o[5]
			o[0] = w & 0xF
			o[1] = w >> 4 & 0xF
			o[2] = w >> 8 & 0x1F
			o[3] = w >> 13 & 0x1F
			o[4] = w >> 18 & 0x1F
			o[5] = w >> 23 & 0x1F
		case 10: // 3 × 6 bits, 2 × 5 bits
			_ = o[4]
			o[0] = w & 0x3F
			o[1] = w >> 6 & 0x3F
			o[2] = w >> 12 & 0x3F
			o[3] = w >> 18 & 0x1F
			o[4] = w >> 23 & 0x1F
		case 11: // 2 × 5 bits, 3 × 6 bits
			_ = o[4]
			o[0] = w & 0x1F
			o[1] = w >> 5 & 0x1F
			o[2] = w >> 10 & 0x3F
			o[3] = w >> 16 & 0x3F
			o[4] = w >> 22 & 0x3F
		case 12: // 4 × 7 bits
			_ = o[3]
			o[0] = w & 0x7F
			o[1] = w >> 7 & 0x7F
			o[2] = w >> 14 & 0x7F
			o[3] = w >> 21 & 0x7F
		case 13: // 1 × 10 bits, 2 × 9 bits
			_ = o[2]
			o[0] = w & 0x3FF
			o[1] = w >> 10 & 0x1FF
			o[2] = w >> 19 & 0x1FF
		case 14: // 2 × 14 bits
			_ = o[1]
			o[0] = w & 0x3FFF
			o[1] = w >> 14 & 0x3FFF
		case 15: // 1 × 28 bits
			_ = o[0]
			o[0] = w & 0xFFFFFFF
		}
		if partial {
			copy(out, tail[:])
			break
		}
		out = out[s16Count[sel]:]
	}
	return dst, pos, Fault{}
}

// DecodeS8b decodes n Simple8b values, one selector word at a time,
// appending to dst, and reports the bytes consumed. Fields wider than 32
// bits keep their low 32.
//
//boss:hotpath the S8b per-block decode.
func DecodeS8b(dst []uint32, src []byte, n int) ([]uint32, int, Fault) {
	if n <= 0 {
		return dst, 0, Fault{}
	}
	start := len(dst)
	dst = extend(dst, n)
	out := dst[start:]
	pos := 0
	for len(out) > 0 {
		if pos+8 > len(src) {
			return nil, 0, Fault{Kind: FaultS8bTruncated}
		}
		word := binary.LittleEndian.Uint64(src[pos:])
		pos += 8
		m := s8bModes[word>>60]
		k := min(m.count, len(out))
		if m.width == 0 {
			clear(out[:k])
		} else {
			mask := uint64(1)<<uint(m.width) - 1
			for j := range out[:k] {
				out[j] = uint32(word & mask)
				word >>= uint(m.width)
			}
		}
		out = out[k:]
	}
	return dst, pos, Fault{}
}
