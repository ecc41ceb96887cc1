package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// roundTrip encodes values with codec c and decodes them back, failing the
// test on any mismatch. It also verifies that Decode reports the exact
// payload length.
func roundTrip(t *testing.T, c Codec, values []uint32) {
	t.Helper()
	enc := c.Encode(nil, values)
	got, used := c.Decode(nil, enc, len(values))
	if used != len(enc) {
		t.Fatalf("%s: decode consumed %d bytes, payload is %d", c.Scheme(), used, len(enc))
	}
	if len(values) == 0 {
		if len(got) != 0 {
			t.Fatalf("%s: decoded %d values from empty input", c.Scheme(), len(got))
		}
		return
	}
	if !reflect.DeepEqual(got, values) {
		t.Fatalf("%s: round trip mismatch\n in: %v\nout: %v", c.Scheme(), values, got)
	}
}

// testStreams returns a variety of value distributions, all within maxV.
func testStreams(rng *rand.Rand, maxV uint32) map[string][]uint32 {
	clip := func(v uint32) uint32 {
		if v > maxV {
			return maxV
		}
		return v
	}
	streams := map[string][]uint32{
		"empty":     {},
		"single":    {clip(42)},
		"zeros":     make([]uint32, 128),
		"ones":      nil,
		"ramp":      nil,
		"smallrand": nil,
		"widerand":  nil,
		"outliers":  nil,
		"maxvals":   nil,
	}
	for i := 0; i < 128; i++ {
		streams["ones"] = append(streams["ones"], 1)
		streams["ramp"] = append(streams["ramp"], clip(uint32(i)))
		streams["smallrand"] = append(streams["smallrand"], clip(uint32(rng.Intn(64))))
		streams["widerand"] = append(streams["widerand"], clip(rng.Uint32()))
		v := uint32(rng.Intn(16))
		if rng.Intn(10) == 0 {
			v = clip(uint32(rng.Intn(1 << 20)))
		}
		streams["outliers"] = append(streams["outliers"], v)
		streams["maxvals"] = append(streams["maxvals"], maxV)
	}
	return streams
}

func TestRoundTripAllCodecs(t *testing.T) {
	for _, s := range AllSchemes() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			c := ForScheme(s)
			rng := rand.New(rand.NewSource(1))
			for name, stream := range testStreams(rng, c.MaxValue()) {
				if !c.Supports(stream) {
					t.Fatalf("stream %s unexpectedly unsupported", name)
				}
				roundTrip(t, c, stream)
			}
		})
	}
}

func TestRoundTripQuick(t *testing.T) {
	for _, s := range AllSchemes() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			c := ForScheme(s)
			f := func(raw []uint32, widthSeed uint8) bool {
				// Constrain width so exotic distributions are exercised,
				// and clamp to the codec's range.
				w := uint(widthSeed%29) + 1
				values := make([]uint32, len(raw))
				if len(values) > 255 {
					values = values[:255] // PFD block limit
				}
				for i := range values {
					values[i] = raw[i] & (1<<w - 1)
					if values[i] > c.MaxValue() {
						values[i] = c.MaxValue()
					}
				}
				enc := c.Encode(nil, values)
				got, used := c.Decode(nil, enc, len(values))
				if used != len(enc) {
					return false
				}
				if len(values) == 0 {
					return len(got) == 0
				}
				return reflect.DeepEqual(got, values)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDecodeAppendsToDst(t *testing.T) {
	c := ForScheme(VB)
	enc := c.Encode(nil, []uint32{7, 8})
	prefix := []uint32{1, 2, 3}
	got, _ := c.Decode(prefix, enc, 2)
	want := []uint32{1, 2, 3, 7, 8}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Decode did not append: %v", got)
	}
}

func TestVBEncodingSizes(t *testing.T) {
	cases := []struct {
		v    uint32
		size int
	}{
		{0, 1}, {127, 1}, {128, 2}, {1<<14 - 1, 2}, {1 << 14, 3},
		{1<<21 - 1, 3}, {1 << 21, 4}, {1<<28 - 1, 4}, {1 << 28, 5}, {^uint32(0), 5},
	}
	for _, tc := range cases {
		if got := len(appendVB(nil, tc.v)); got != tc.size {
			t.Errorf("VB size of %d = %d, want %d", tc.v, got, tc.size)
		}
	}
}

func TestBPWidthZero(t *testing.T) {
	c := ForScheme(BP)
	values := make([]uint32, 100)
	enc := c.Encode(nil, values)
	if len(enc) != 1 {
		t.Fatalf("all-zero BP block is %d bytes, want 1 (header only)", len(enc))
	}
	roundTrip(t, c, values)
}

func TestBPUsesMaxWidth(t *testing.T) {
	c := ForScheme(BP)
	values := []uint32{1, 1, 1, 1<<20 - 1}
	enc := c.Encode(nil, values)
	want := 1 + packedLen(4, 20)
	if len(enc) != want {
		t.Fatalf("BP size = %d, want %d", len(enc), want)
	}
}

func TestPFDHandlesOutliers(t *testing.T) {
	// 90% small values, 10% huge: PFD should pick a small b and treat huge
	// values as exceptions, beating BP comfortably.
	rng := rand.New(rand.NewSource(7))
	values := make([]uint32, 128)
	for i := range values {
		if i%10 == 0 {
			values[i] = uint32(rng.Intn(1 << 27))
		} else {
			values[i] = uint32(rng.Intn(32))
		}
	}
	pfd := EncodedSize(PFD, values)
	bp := EncodedSize(BP, values)
	if pfd >= bp {
		t.Fatalf("PFD (%dB) should beat BP (%dB) on outlier data", pfd, bp)
	}
	roundTrip(t, ForScheme(PFD), values)
	roundTrip(t, ForScheme(OptPFD), values)
}

func TestOptPFDNoWorseThanPFD(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(128)
		values := make([]uint32, n)
		w := uint(rng.Intn(28)) + 1
		for i := range values {
			values[i] = rng.Uint32() & (1<<w - 1)
			if rng.Intn(8) == 0 {
				values[i] = rng.Uint32() >> 4
			}
		}
		opt := EncodedSize(OptPFD, values)
		plain := EncodedSize(PFD, values)
		if opt > plain {
			t.Fatalf("trial %d: OptPFD (%dB) worse than PFD (%dB) on %v", trial, opt, plain, values)
		}
	}
}

func TestS16RejectsWideValues(t *testing.T) {
	c := ForScheme(S16)
	if c.Supports([]uint32{1 << 28}) {
		t.Fatal("S16 must not support values >= 2^28")
	}
	if !c.Supports([]uint32{1<<28 - 1}) {
		t.Fatal("S16 must support 2^28-1")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("encoding an unsupported value should panic")
		}
	}()
	c.Encode(nil, []uint32{1 << 28})
}

func TestS16ModesSumTo28(t *testing.T) {
	for m, widths := range s16Modes {
		sum := 0
		for _, w := range widths {
			sum += w
		}
		if sum != 28 {
			t.Errorf("S16 mode %d sums to %d bits, want 28", m, sum)
		}
	}
}

func TestS16PacksDenseOnes(t *testing.T) {
	// 280 one-bit values should take exactly 10 words (28 per word).
	values := make([]uint32, 280)
	for i := range values {
		values[i] = uint32(i % 2)
	}
	enc := ForScheme(S16).Encode(nil, values)
	if len(enc) != 40 {
		t.Fatalf("S16 encoded 280 1-bit values in %d bytes, want 40", len(enc))
	}
}

// TestDecodeS16EveryMode holds each written-out case of DecodeS16 to the
// s16Modes table: for every mode, a word of random fields (each mode's
// widest values included) decodes to the fields the table's widths name,
// for every count from one value to the whole word, appended after a
// prefix and with exactly one word consumed.
func TestDecodeS16EveryMode(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for m, widths := range s16Modes {
		for trial := 0; trial < 20; trial++ {
			word, shift := uint32(m)<<28, 0
			fields := make([]uint32, len(widths))
			for j, w := range widths {
				fields[j] = rng.Uint32() & (1<<uint(w) - 1)
				if trial == 0 {
					fields[j] = 1<<uint(w) - 1
				}
				word |= fields[j] << uint(shift)
				shift += w
			}
			src := binary.LittleEndian.AppendUint32(nil, word)
			for k := 1; k <= len(widths); k++ {
				got, used, f := DecodeS16([]uint32{7}, src, k)
				if f.Kind != FaultNone || used != 4 {
					t.Fatalf("mode %d, %d values: fault %v, %d bytes", m, k, f, used)
				}
				if !reflect.DeepEqual(got, append([]uint32{7}, fields[:k]...)) {
					t.Fatalf("mode %d, %d values: got %v, want %v", m, k, got[1:], fields[:k])
				}
			}
		}
	}
}

// TestDecodeVBWideValues: a value of five groups above 2^32, and one of
// twelve that overflows even a 64-bit accumulator, keep their low 32 bits
// (what the decompression module's register truncated to 32 bits holds).
func TestDecodeVBWideValues(t *testing.T) {
	long := append(bytes.Repeat([]byte{0x55}, 11), 0xAA)
	src := append([]byte{0x7F, 0x7F, 0x7F, 0x7F, 0xFF}, long...)
	src = append(src, 0x83, 0x01) // a third value, then a trailing byte
	var wide uint64
	for _, b := range long {
		wide = wide<<7 | uint64(b&0x7F)
	}
	got, used, f := DecodeVB(nil, src, 3)
	if f.Kind != FaultNone || used != len(src)-1 {
		t.Fatalf("fault %v, %d bytes consumed of %d", f, used, len(src))
	}
	if want := []uint32{0xFFFFFFFF, uint32(wide), 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %#x, want %#x", got, want)
	}
}

// TestVBDecodeTruncatedPanics: Codec.Decode has no error result, so a
// truncated VB payload panics with mustDecode's message, as every codec's
// does, rather than indexing past the payload.
func TestVBDecodeTruncatedPanics(t *testing.T) {
	enc := ForScheme(VB).Encode(nil, []uint32{300, 5}) // 0x02 0xAC 0x85
	for _, tc := range []struct {
		src  []byte
		n    int
		want string
	}{
		{enc[:1], 1, "compress: VB decode: VB payload truncated after 0 of 1 values"},
		{enc, 3, "compress: VB decode: VB payload truncated after 2 of 3 values"},
	} {
		func() {
			defer func() {
				if r := recover(); r != tc.want {
					t.Errorf("Decode(% x, %d) panicked with %v, want %q", tc.src, tc.n, r, tc.want)
				}
			}()
			ForScheme(VB).Decode(nil, tc.src, tc.n)
		}()
	}
}

func TestS8bModes(t *testing.T) {
	for sel, m := range s8bModes {
		if m.width*m.count > 60 {
			t.Errorf("S8b selector %d overflows 60 data bits", sel)
		}
	}
}

func TestS8bZeroRun(t *testing.T) {
	values := make([]uint32, 240)
	enc := ForScheme(S8b).Encode(nil, values)
	if len(enc) != 8 {
		t.Fatalf("240 zeros should take one 8-byte word, got %d bytes", len(enc))
	}
	roundTrip(t, ForScheme(S8b), values)

	// 360 zeros: one word of 240 + one word of 120.
	values = make([]uint32, 360)
	enc = ForScheme(S8b).Encode(nil, values)
	if len(enc) != 16 {
		t.Fatalf("360 zeros should take two words, got %d bytes", len(enc))
	}
	roundTrip(t, ForScheme(S8b), values)
}

func TestChooseBestPrefersCompactScheme(t *testing.T) {
	// Dense small values: bit packing family should win over VB.
	values := make([]uint32, 128)
	for i := range values {
		values[i] = uint32(i % 4)
	}
	best, size := ChooseBest(values, nil)
	if size >= EncodedSize(VB, values) {
		t.Fatalf("best scheme %s (%dB) not better than VB (%dB)", best, size, EncodedSize(VB, values))
	}
	// And the reported size must match the actual encoding.
	if size != EncodedSize(best, values) {
		t.Fatalf("ChooseBest size %d != actual %d", size, EncodedSize(best, values))
	}
}

func TestChooseBestExcludesUnsupported(t *testing.T) {
	values := []uint32{1 << 30} // too wide for S16
	best, _ := ChooseBest(values, []Scheme{S16, VB})
	if best != VB {
		t.Fatalf("ChooseBest picked %s, want VB", best)
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	values := []uint32{3, 7, 7, 20, 100}
	orig := append([]uint32(nil), values...)
	DeltaEncode(values, 0)
	if !reflect.DeepEqual(values, []uint32{3, 4, 0, 13, 80}) {
		t.Fatalf("deltas = %v", values)
	}
	DeltaDecode(values, 0)
	if !reflect.DeepEqual(values, orig) {
		t.Fatalf("delta round trip = %v, want %v", values, orig)
	}
}

func TestDeltaEncodeWithBase(t *testing.T) {
	values := []uint32{10, 12}
	DeltaEncode(values, 10)
	if !reflect.DeepEqual(values, []uint32{0, 2}) {
		t.Fatalf("deltas with base = %v", values)
	}
	DeltaDecode(values, 10)
	if !reflect.DeepEqual(values, []uint32{10, 12}) {
		t.Fatal("base round trip failed")
	}
}

func TestDeltaEncodeUnsortedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DeltaEncode on unsorted input should panic")
		}
	}()
	DeltaEncode([]uint32{5, 3}, 0)
}

func TestPackBitsRoundTripQuick(t *testing.T) {
	f := func(raw []uint32, widthSeed uint8) bool {
		w := int(widthSeed%32) + 1
		values := make([]uint32, len(raw))
		for i := range raw {
			values[i] = raw[i] & uint32(1<<uint(w)-1)
		}
		packed := packBits(nil, values, w)
		if len(packed) != packedLen(len(values), w) {
			return false
		}
		got, used, _ := UnpackBits(nil, packed, len(values), w)
		if used != len(packed) {
			return false
		}
		if len(values) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, values)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSchemeString(t *testing.T) {
	names := map[Scheme]string{
		BP: "BP", VB: "VB", PFD: "PFD", OptPFD: "OptPFD",
		S16: "S16", S8b: "S8b", SchemeHybrid: "Hybrid",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("Scheme(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
	if Scheme(200).String() != "Scheme(200)" {
		t.Errorf("unknown scheme string: %q", Scheme(200).String())
	}
}

func TestCompressionRatio(t *testing.T) {
	if r := CompressionRatio(128, 128); r != 4.0 {
		t.Fatalf("ratio = %v, want 4", r)
	}
	if r := CompressionRatio(10, 0); r != 0 {
		t.Fatalf("ratio with zero size = %v", r)
	}
}

func BenchmarkDecode128(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	values := make([]uint32, 128)
	for i := range values {
		values[i] = uint32(rng.Intn(256))
	}
	for _, s := range AllSchemes() {
		c := ForScheme(s)
		enc := c.Encode(nil, values)
		b.Run(s.String(), func(b *testing.B) {
			buf := make([]uint32, 0, 128)
			b.SetBytes(int64(4 * len(values)))
			for i := 0; i < b.N; i++ {
				buf, _ = c.Decode(buf[:0], enc, len(values))
			}
		})
	}
}

// DeltaEncode rewrites sorted values in place as d-gaps: out[0] = in[0]-base,
// out[i] = in[i]-in[i-1]. It panics if the input is not non-decreasing from
// base (inverted-index docIDs are strictly increasing, but ties are
// tolerated here so the function is usable for tf streams too).
func DeltaEncode(values []uint32, base uint32) {
	prev := base
	for i, v := range values {
		if v < prev {
			panic(fmt.Sprintf("compress: DeltaEncode input not sorted at %d: %d < %d", i, v, prev))
		}
		values[i] = v - prev
		prev = v
	}
}
