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

// s16Fit reports how many of the pending values fit mode m (greedy, in
// order). A mode "fits" k values when k = min(len(mode), len(pending)) and
// each of the first k values fits its field. Modes that cannot take all
// their slots are still usable at the end of a stream (remaining fields are
// zero-padded).
func s16Fit(mode []int, pending []uint32) int {
	k := len(mode)
	if len(pending) < k {
		k = len(pending)
	}
	for i := 0; i < k; i++ {
		if bitWidth(pending[i]) > mode[i] {
			return -1
		}
	}
	return k
}

func (s16Codec) Encode(dst []byte, values []uint32) []byte {
	pending := values
	for len(pending) > 0 {
		// Pick the mode packing the most values into this word.
		bestMode, bestK := -1, -1
		for m, widths := range s16Modes {
			if k := s16Fit(widths, pending); k > bestK {
				bestMode, bestK = m, k
			}
		}
		if bestK <= 0 {
			panic("compress: S16 value out of range")
		}
		var word uint32 = uint32(bestMode) << 28
		shift := 0
		widths := s16Modes[bestMode]
		for i := 0; i < bestK; i++ {
			word |= pending[i] << uint(shift)
			shift += widths[i]
		}
		dst = binary.LittleEndian.AppendUint32(dst, word)
		pending = pending[bestK:]
	}
	return dst
}

func (s16Codec) Decode(dst []uint32, src []byte, n int) ([]uint32, int) {
	out, used, f := DecodeS16(dst, src, n)
	mustDecode(S16, f)
	return out, used
}
