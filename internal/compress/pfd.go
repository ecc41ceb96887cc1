package compress

import "sync"

// pfdScratch holds the per-call encode scratch (low-bits area and exception
// staging). Index builds encode every block through ChooseBest and the
// selected codec, so this path runs hot; pooling keeps it allocation-free.
type pfdScratch struct {
	low    []uint32
	excPos []byte
	excVal []uint32
}

var pfdScratchPool = sync.Pool{New: func() any { return new(pfdScratch) }}

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

func (c pfdCodec) Scheme() Scheme {
	if c.opt {
		return OptPFD
	}
	return PFD
}

func (pfdCodec) Supports(values []uint32) bool { return len(values) <= 255 }
func (pfdCodec) MaxValue() uint32              { return ^uint32(0) }

// pfdSize reports the exact encoded size for width b, and the exception
// count.
func pfdSize(values []uint32, b int) (size, nExc int) {
	size = 2 + packedLen(len(values), b)
	for _, v := range values {
		if bitWidth(v) > b {
			nExc++
			size++ // position byte
			size += vbLen(v >> uint(b))
		}
	}
	return size, nExc
}

// chooseB selects the bit width according to the codec's policy.
func (c pfdCodec) chooseB(values []uint32) int {
	maxW := maxBitWidth(values)
	if len(values) == 0 {
		return 0
	}
	if c.opt {
		bestB, bestSize := maxW, -1
		for b := 0; b <= maxW; b++ {
			size, nExc := pfdSize(values, b)
			if nExc > 255 {
				continue
			}
			if bestSize < 0 || size < bestSize {
				bestB, bestSize = b, size
			}
		}
		return bestB
	}
	// Classic PFD: smallest b such that >= 90% of values fit.
	// Count values per bit width.
	var byWidth [33]int
	for _, v := range values {
		byWidth[bitWidth(v)]++
	}
	need := (len(values)*9 + 9) / 10 // ceil(0.9 * n)
	covered := 0
	for b := 0; b <= 32; b++ {
		covered += byWidth[b]
		if covered >= need {
			if _, nExc := pfdSize(values, b); nExc <= 255 {
				return b
			}
		}
	}
	return maxW
}

func (c pfdCodec) Encode(dst []byte, values []uint32) []byte {
	if len(values) > 255 {
		panic("compress: PFD block larger than 255 values")
	}
	b := c.chooseB(values)
	mask := uint32(0)
	if b > 0 {
		mask = 1<<uint(b) - 1
	}
	sc := pfdScratchPool.Get().(*pfdScratch)
	low := sc.low[:0]
	excPos := sc.excPos[:0]
	excVal := sc.excVal[:0]
	for i, v := range values {
		low = append(low, v&mask)
		if bitWidth(v) > b {
			excPos = append(excPos, byte(i))
			excVal = append(excVal, v>>uint(b))
		}
	}
	dst = append(dst, byte(b), byte(len(excPos)))
	dst = append(dst, excPos...)
	dst = packBits(dst, low, b)
	for _, hv := range excVal {
		dst = appendVB(dst, hv)
	}
	sc.low, sc.excPos, sc.excVal = low, excPos, excVal
	pfdScratchPool.Put(sc)
	return dst
}

func (c pfdCodec) Decode(dst []uint32, src []byte, n int) ([]uint32, int) {
	out, used, _, f := DecodePFD(dst, src, n)
	mustDecode(c.Scheme(), f)
	return out, used
}
