package compress

// bpCodec implements Bit-Packing (BP): every value in the block is stored at
// the bit width of the block's largest value. The payload is a 1-byte width
// header followed by the packed values.
type bpCodec struct{}

func (bpCodec) Scheme() Scheme                { return BP }
func (bpCodec) Supports(values []uint32) bool { return true }
func (bpCodec) MaxValue() uint32              { return ^uint32(0) }

func (bpCodec) Encode(dst []byte, values []uint32) []byte {
	w := measure(values).max
	dst = append(dst, byte(w))
	return packBits(dst, values, w)
}

func (bpCodec) Decode(dst []uint32, src []byte, n int) ([]uint32, int) {
	out, used, f := UnpackBits(dst, src[1:], n, int(src[0]))
	mustDecode(BP, f)
	return out, 1 + used
}
