package compress

import "encoding/binary"

// s8bCodec implements Simple8b (Anh & Moffat, "Index compression using
// 64-bit words"): values are packed into 64-bit words, each with a 4-bit
// selector and 60 data bits. Two special selectors encode runs of 240 and
// 120 zeros in a single word.
type s8bCodec struct{}

// s8bMode describes one selector: how many values and at what width.
type s8bMode struct {
	count int
	width int
}

var s8bModes = [16]s8bMode{
	{240, 0},
	{120, 0},
	{60, 1},
	{30, 2},
	{20, 3},
	{15, 4},
	{12, 5},
	{10, 6},
	{8, 7},
	{7, 8},
	{6, 10},
	{5, 12},
	{4, 15},
	{3, 20},
	{2, 30},
	{1, 60},
}

func (s8bCodec) Scheme() Scheme   { return S8b }
func (s8bCodec) MaxValue() uint32 { return ^uint32(0) }

func (s8bCodec) Supports(values []uint32) bool { return true } // uint32 < 2^60 always

// s8bFit reports how many pending values selector sel can take (greedy).
// Returns -1 if the first min(count, len(pending)) values do not all fit.
func s8bFit(sel int, pending []uint32) int {
	m := s8bModes[sel]
	k := m.count
	if len(pending) < k {
		k = len(pending)
	}
	for i := 0; i < k; i++ {
		if bitWidth(pending[i]) > m.width {
			return -1
		}
	}
	return k
}

func (s8bCodec) Encode(dst []byte, values []uint32) []byte {
	pending := values
	for len(pending) > 0 {
		bestSel, bestK := -1, -1
		for sel := range s8bModes {
			if k := s8bFit(sel, pending); k > bestK {
				bestSel, bestK = sel, k
			}
		}
		if bestK <= 0 {
			panic("compress: S8b value out of range")
		}
		m := s8bModes[bestSel]
		word := uint64(bestSel) << 60
		shift := 0
		for i := 0; i < bestK && m.width > 0; i++ {
			word |= uint64(pending[i]) << uint(shift)
			shift += m.width
		}
		dst = binary.LittleEndian.AppendUint64(dst, word)
		pending = pending[bestK:]
	}
	return dst
}

func (s8bCodec) Decode(dst []uint32, src []byte, n int) ([]uint32, int) {
	out, used, f := DecodeS8b(dst, src, n)
	mustDecode(S8b, f)
	return out, used
}
