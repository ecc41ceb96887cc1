package compress

import (
	"encoding/binary"
	"reflect"
	"slices"
	"testing"
)

// FuzzRoundTrip drives every codec with arbitrary byte-derived value
// streams; any mismatch between Encode and Decode, or any panic, fails.
// Runs its seed corpus under plain `go test`; explore with
// `go test -fuzz=FuzzRoundTrip ./internal/compress`.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint8(0))
	f.Add([]byte{255, 255, 255, 255}, uint8(3))
	f.Add([]byte{}, uint8(5))
	f.Add([]byte{1, 0, 0, 0, 255, 255, 3, 9, 9, 9, 9, 9, 9, 9, 1}, uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, schemeSeed uint8) {
		scheme := AllSchemes()[int(schemeSeed)%len(AllSchemes())]
		codec := ForScheme(scheme)
		// Derive a bounded value stream from the fuzz input.
		n := len(raw) / 4
		if n > 255 {
			n = 255 // PFD block limit
		}
		values := make([]uint32, n)
		for i := range values {
			values[i] = binary.LittleEndian.Uint32(raw[i*4:])
			if values[i] > codec.MaxValue() {
				values[i] %= codec.MaxValue() + 1
			}
		}
		enc := codec.Encode(nil, values)
		got, used := codec.Decode(nil, enc, len(values))
		if used != len(enc) {
			t.Fatalf("%s: consumed %d of %d bytes", scheme, used, len(enc))
		}
		if len(values) == 0 {
			if len(got) != 0 {
				t.Fatalf("%s: decoded %d values from empty input", scheme, len(got))
			}
			return
		}
		if !reflect.DeepEqual(got, values) {
			t.Fatalf("%s: round trip mismatch", scheme)
		}
	})
}

// FuzzDeltaCodec checks DeltaEncode/DeltaDecode inverses on sorted streams.
func FuzzDeltaCodec(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint32(0))
	f.Add([]byte{'0'}, uint32(27)) // under two bytes: no values, and a nil copy
	f.Fuzz(func(t *testing.T, raw []byte, base uint32) {
		base %= 1 << 20
		values := make([]uint32, len(raw)/2)
		acc := base
		for i := range values {
			acc += uint32(raw[i*2]) | uint32(raw[i*2+1])<<8
			values[i] = acc
		}
		orig := append([]uint32(nil), values...)
		DeltaEncode(values, base)
		DeltaDecode(values, base)
		if !slices.Equal(values, orig) {
			t.Fatal("delta round trip mismatch")
		}
	})
}
