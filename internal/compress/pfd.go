package compress

// pfdCodec implements PForDelta (PFD) and its OptPFD variant.
//
// Layout:
//
//	[b:1][nExc:1][exc positions: nExc bytes][packed low b bits of all n
//	values][exception high bits, VB-encoded]
//
// The main area stores the low b bits of every value. Values wider than b
// bits are exceptions: their position (block-relative, < 256 since blocks
// hold at most 128 values) is listed in the header and the bits above b are
// VB-encoded in the tail.
//
// PFD picks the smallest b covering at least 90% of the values (the classic
// heuristic from Zukowski et al.); OptPFD picks the b that minimizes the
// exact encoded size (Yan, Ding & Suel).
type pfdCodec struct {
	opt bool
}

// pfdMaxValues is the most values one PFD encoding holds: the header
// counts exceptions, and positions are bytes.
const pfdMaxValues = 255

func (c pfdCodec) Scheme() Scheme {
	if c.opt {
		return OptPFD
	}
	return PFD
}

func (pfdCodec) Supports(values []uint32) bool { return len(values) <= pfdMaxValues }
func (pfdCodec) MaxValue() uint32              { return ^uint32(0) }

// pfdSize reports the exact encoded size at width b: the header, the low
// bits of every value, and per exception a position byte and the VB bytes
// of its high bits — one per 7 of the bits above b, rounded up, which sums
// to one byte for every 7-bit band above b that the exception reaches.
func (w *widthProfile) pfdSize(b int) int {
	size := 2 + packedLen(w.n(), b) + w.wider(b)
	for band := b; band < 32; band += 7 {
		size += w.wider(band)
	}
	return size
}

// chooseB selects the bit width according to the codec's policy. Supports
// caps a stream at 255 values, so every width's exceptions fit the
// one-byte count.
func (c pfdCodec) chooseB(w *widthProfile) int {
	if w.n() == 0 {
		return 0
	}
	if c.opt {
		bestB, bestSize := w.max, -1
		for b := 0; b <= w.max; b++ {
			if size := w.pfdSize(b); bestSize < 0 || size < bestSize {
				bestB, bestSize = b, size
			}
		}
		return bestB
	}
	// Classic PFD: smallest b such that >= 90% of values fit.
	need := (w.n()*9 + 9) / 10 // ceil(0.9 * n)
	for b := 0; b < w.max; b++ {
		if w.atMost[b] >= need {
			return b
		}
	}
	return w.max
}

func (c pfdCodec) Encode(dst []byte, values []uint32) []byte {
	if len(values) > pfdMaxValues {
		panic("compress: PFD block larger than 255 values")
	}
	w := measure(values)
	b := c.chooseB(&w)
	dst = append(dst, byte(b), byte(w.wider(b)))
	for i, v := range values {
		if bitWidth(v) > b {
			dst = append(dst, byte(i))
		}
	}
	dst = packBits(dst, values, b) // packBits keeps the low b bits
	for _, v := range values {
		if bitWidth(v) > b {
			dst = appendVB(dst, v>>uint(b))
		}
	}
	return dst
}

func (c pfdCodec) Decode(dst []uint32, src []byte, n int) ([]uint32, int) {
	out, used, _, f := DecodePFD(dst, src, n)
	mustDecode(c.Scheme(), f)
	return out, used
}
