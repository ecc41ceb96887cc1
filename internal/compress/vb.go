package compress

// vbCodec implements VariableByte (VB): each value is split into 7-bit
// groups, most-significant group first; the final byte of a value has its
// high bit set. This matches the accumulate-then-terminate datapath the
// BOSS decompression module is configured with in the paper's Figure 8
// (payload = byte & 0x7F accumulated as reg<<7 + payload; the MSB marks the
// value boundary).
type vbCodec struct{}

func (vbCodec) Scheme() Scheme                { return VB }
func (vbCodec) Supports(values []uint32) bool { return true }
func (vbCodec) MaxValue() uint32              { return ^uint32(0) }

func (vbCodec) Encode(dst []byte, values []uint32) []byte {
	for _, v := range values {
		dst = appendVB(dst, v)
	}
	return dst
}

// appendVB appends one VB-encoded value.
func appendVB(dst []byte, v uint32) []byte {
	// Emit most-significant groups first.
	switch {
	case v < 1<<7:
		return append(dst, byte(v)|0x80)
	case v < 1<<14:
		return append(dst, byte(v>>7), byte(v&0x7F)|0x80)
	case v < 1<<21:
		return append(dst, byte(v>>14), byte(v>>7)&0x7F, byte(v&0x7F)|0x80)
	case v < 1<<28:
		return append(dst, byte(v>>21), byte(v>>14)&0x7F, byte(v>>7)&0x7F, byte(v&0x7F)|0x80)
	default:
		return append(dst, byte(v>>28), byte(v>>21)&0x7F, byte(v>>14)&0x7F, byte(v>>7)&0x7F, byte(v&0x7F)|0x80)
	}
}

// vbLen reports the encoded length of one value without encoding it.
func vbLen(v uint32) int {
	switch {
	case v < 1<<7:
		return 1
	case v < 1<<14:
		return 2
	case v < 1<<21:
		return 3
	case v < 1<<28:
		return 4
	default:
		return 5
	}
}

func (vbCodec) Decode(dst []uint32, src []byte, n int) ([]uint32, int) {
	out, used, f := DecodeVB(dst, src, n)
	mustDecode(VB, f)
	return out, used
}
