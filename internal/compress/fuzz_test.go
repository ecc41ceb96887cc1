package compress

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"testing"
)

// FuzzRoundTrip drives every codec with arbitrary byte-derived value
// streams; any mismatch between Encode and Decode, or any panic, fails.
// It also holds the sizing to the bytes: every scheme's EncodedSize must
// equal its encoded length, and ChooseBest must pick what encoding every
// scheme would (chooseBestByEncoding). Runs its seed corpus under plain
// `go test`; explore with `go test -fuzz=FuzzRoundTrip ./internal/compress`.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint8(0))
	f.Add([]byte{255, 255, 255, 255}, uint8(3))
	f.Add([]byte{}, uint8(5))
	f.Add([]byte{1, 0, 0, 0, 255, 255, 3, 9, 9, 9, 9, 9, 9, 9, 1}, uint8(2))
	f.Add(bytes.Repeat([]byte{3, 0, 0, 0}, 300), uint8(4)) // too long for PFD
	// One value of each width 0..32: every 7-bit band boundary.
	var everyWidth []byte
	for w := 0; w <= 32; w++ {
		everyWidth = binary.LittleEndian.AppendUint32(everyWidth, uint32(uint64(1)<<w-1))
	}
	f.Add(everyWidth, uint8(1))
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
		if size := EncodedSize(scheme, values); size != len(enc) {
			t.Fatalf("%s: EncodedSize %d, encoded %d bytes", scheme, size, len(enc))
		}
		// The hybrid choice sees the unclipped stream, so values too wide
		// for S16 and streams too long for PFD rule those schemes out.
		whole := make([]uint32, len(raw)/4)
		for i := range whole {
			whole[i] = binary.LittleEndian.Uint32(raw[i*4:])
		}
		for _, s := range AllSchemes() {
			if c := ForScheme(s); c.Supports(whole) {
				if size, want := EncodedSize(s, whole), len(c.Encode(nil, whole)); size != want {
					t.Fatalf("%s: EncodedSize %d, encoded %d bytes", s, size, want)
				}
			}
		}
		gotS, gotSize := ChooseBest(whole, nil)
		if wantS, wantSize := chooseBestByEncoding(whole); gotS != wantS || gotSize != wantSize {
			t.Fatalf("ChooseBest = %s/%dB, encoding every scheme picks %s/%dB", gotS, gotSize, wantS, wantSize)
		}
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

// chooseBestByEncoding is the hybrid choice by definition: encode values
// with every scheme that supports them and keep the first, in AllSchemes
// order, of least encoded length.
func chooseBestByEncoding(values []uint32) (Scheme, int) {
	best, bestSize := Scheme(0xFE), -1
	for _, s := range AllSchemes() {
		c := ForScheme(s)
		if !c.Supports(values) {
			continue
		}
		if size := len(c.Encode(nil, values)); bestSize < 0 || size < bestSize {
			best, bestSize = s, size
		}
	}
	return best, bestSize
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
