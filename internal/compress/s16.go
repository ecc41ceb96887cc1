package compress

import "encoding/binary"

// s16Codec implements Simple16 (Zhang, Long & Suel): values are packed into
// 32-bit words, each carrying a 4-bit mode selector and 28 data bits split
// into a mode-specific pattern of field widths. Values must be < 2^28.
type s16Codec struct{}

// s16Modes lists, for each selector, the sequence of field widths (bits).
// Every row sums to 28 bits.
var s16Modes = [16][]int{
	repeatWidths(1, 28),
	concatWidths(repeatWidths(2, 7), repeatWidths(1, 14)),
	concatWidths(repeatWidths(1, 7), repeatWidths(2, 7), repeatWidths(1, 7)),
	concatWidths(repeatWidths(1, 14), repeatWidths(2, 7)),
	repeatWidths(2, 14),
	concatWidths(repeatWidths(4, 1), repeatWidths(3, 8)),
	concatWidths(repeatWidths(3, 1), repeatWidths(4, 4), repeatWidths(3, 3)),
	repeatWidths(4, 7),
	concatWidths(repeatWidths(5, 4), repeatWidths(4, 2)),
	concatWidths(repeatWidths(4, 2), repeatWidths(5, 4)),
	concatWidths(repeatWidths(6, 3), repeatWidths(5, 2)),
	concatWidths(repeatWidths(5, 2), repeatWidths(6, 3)),
	repeatWidths(7, 4),
	concatWidths(repeatWidths(10, 1), repeatWidths(9, 2)),
	repeatWidths(14, 2),
	repeatWidths(28, 1),
}

func repeatWidths(width, count int) []int {
	ws := make([]int, count)
	for i := range ws {
		ws[i] = width
	}
	return ws
}

func concatWidths(parts ...[]int) []int {
	var out []int
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

const s16MaxValue = 1<<28 - 1

func (s16Codec) Scheme() Scheme   { return S16 }
func (s16Codec) MaxValue() uint32 { return s16MaxValue }

func (s16Codec) Supports(values []uint32) bool {
	for _, v := range values {
		if v > s16MaxValue {
			return false
		}
	}
	return true
}

// s16From[w] is the first mode whose first field holds a w-bit value; no
// earlier mode can start a word with one. It is len(s16Modes) past 28 bits.
var s16From = func() (from [33]int) {
	for w := range from {
		for from[w] < len(s16Modes) && s16Modes[from[w]][0] < w {
			from[w]++
		}
	}
	return from
}()

// s16Next picks the mode of the next word for pending, a non-empty
// stream: the first mode whose first min(len(mode), len(pending)) fields
// fit the values they would take, and how many values that is. Modes
// that cannot take all their slots are still usable at the end of a stream
// (remaining fields are zero-padded). Mode counts never increase down the
// table, so the first mode that fits packs the most values. It panics if
// no mode fits, which only a value of more than 28 bits causes.
func s16Next(pending []uint32) (mode, k int) {
next:
	for m := s16From[bitWidth(pending[0])]; m < len(s16Modes); m++ {
		widths := s16Modes[m]
		n := min(len(widths), len(pending))
		for i, v := range pending[:n] {
			if bitWidth(v) > widths[i] {
				continue next
			}
		}
		return m, n
	}
	panic("compress: S16 value out of range")
}

// s16Words counts the words S16 encodes values into.
func s16Words(values []uint32) int {
	words := 0
	for len(values) > 0 {
		_, k := s16Next(values)
		values = values[k:]
		words++
	}
	return words
}

func (s16Codec) Encode(dst []byte, values []uint32) []byte {
	pending := values
	for len(pending) > 0 {
		mode, k := s16Next(pending)
		word := uint32(mode) << 28
		shift := 0
		widths := s16Modes[mode]
		for i, v := range pending[:k] {
			word |= v << uint(shift)
			shift += widths[i]
		}
		dst = binary.LittleEndian.AppendUint32(dst, word)
		pending = pending[k:]
	}
	return dst
}

func (s16Codec) Decode(dst []uint32, src []byte, n int) ([]uint32, int) {
	out, used, f := DecodeS16(dst, src, n)
	mustDecode(S16, f)
	return out, used
}
