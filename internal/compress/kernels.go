package compress

import (
	"encoding/binary"
	"fmt"
)

// This file holds the one copy of the block-decode inner loops for the
// field-structured layouts (packed bit fields, PForDelta, Simple16,
// Simple8b). They are bounds-checked — a short or malformed payload is
// reported as a Fault, never as a panic — and write final uint32 values
// straight into the caller's buffer. The codecs' Decode methods and the
// programmable decompression module's fast path (internal/decomp) both run
// these; the module's netlist path keeps its own token extractors as the
// reference the kernels are differentially fuzzed against.

// FaultKind names the reason a decode kernel refused a payload.
type FaultKind uint8

const (
	FaultNone            FaultKind = iota
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

// s16Layout is one Simple16 mode flattened for the decode loop: field j of
// the word is (word >> shift[j]) & mask[j].
type s16Layout struct {
	n     int
	shift [28]uint8
	mask  [28]uint32
}

var s16Layouts = func() (ls [16]s16Layout) {
	for m, widths := range s16Modes {
		l := &ls[m]
		l.n = len(widths)
		shift := 0
		for j, w := range widths {
			l.shift[j] = uint8(shift)
			l.mask[j] = 1<<uint(w) - 1
			shift += w
		}
	}
	return ls
}()

// DecodeS16 decodes n Simple16 values, one selector word at a time,
// appending to dst, and reports the bytes consumed.
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
	for len(out) > 0 {
		if pos+4 > len(src) {
			return nil, 0, Fault{Kind: FaultS16Truncated}
		}
		word := binary.LittleEndian.Uint32(src[pos:])
		pos += 4
		l := &s16Layouts[word>>28]
		k := min(l.n, len(out))
		for j := range out[:k] {
			out[j] = word >> l.shift[j] & l.mask[j]
		}
		out = out[k:]
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
