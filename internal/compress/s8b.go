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

// s8bFrom[w] is the first selector wide enough for a w-bit value; no
// earlier selector can start a word with one.
var s8bFrom = func() (from [33]int) {
	for w := range from {
		for s8bModes[from[w]].width < w {
			from[w]++
		}
	}
	return from
}()

// s8bNext picks the selector of the next word for pending, a non-empty
// stream: the first selector whose width holds each of the first
// min(count, len(pending)) values, and how many values that is. Counts
// fall down the table, so the first selector that fits packs the most
// values; the last (one 60-bit value) fits any uint32.
func s8bNext(pending []uint32) (sel, k int) {
next:
	for s := s8bFrom[bitWidth(pending[0])]; s < len(s8bModes); s++ {
		m := s8bModes[s]
		n := min(m.count, len(pending))
		for _, v := range pending[:n] {
			if bitWidth(v) > m.width {
				continue next
			}
		}
		return s, n
	}
	panic("compress: S8b value out of range")
}

// s8bWords counts the words S8b encodes values into.
func s8bWords(values []uint32) int {
	words := 0
	for len(values) > 0 {
		_, k := s8bNext(values)
		values = values[k:]
		words++
	}
	return words
}

func (s8bCodec) Encode(dst []byte, values []uint32) []byte {
	pending := values
	for len(pending) > 0 {
		sel, k := s8bNext(pending)
		m := s8bModes[sel]
		word := uint64(sel) << 60
		shift := 0
		for i := 0; i < k && m.width > 0; i++ {
			word |= uint64(pending[i]) << uint(shift)
			shift += m.width
		}
		dst = binary.LittleEndian.AppendUint64(dst, word)
		pending = pending[k:]
	}
	return dst
}

func (s8bCodec) Decode(dst []uint32, src []byte, n int) ([]uint32, int) {
	out, used, f := DecodeS8b(dst, src, n)
	mustDecode(S8b, f)
	return out, used
}
