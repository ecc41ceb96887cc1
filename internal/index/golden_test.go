package index

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"boss/internal/compress"
	"boss/internal/corpus"
)

// digest hashes every built byte of the index in term order: per list the
// scheme, placement, payload, each block's metadata and the list-wide
// maxima, then the norms' placement and the footprint.
func (idx *Index) digest() string {
	h := sha256.New()
	var buf []byte
	u8 := func(v uint8) { buf = append(buf, v) }
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	for _, term := range idx.Terms() {
		pl := idx.Lists[term]
		u32(uint32(len(term)))
		buf = append(buf, term...)
		u8(uint8(pl.Scheme))
		u32(uint32(pl.DF))
		f64(pl.IDF)
		f64(pl.MaxScore)
		u32(uint32(pl.ImpactStep))
		u8(pl.MaxImpact)
		u64(pl.BaseAddr)
		u32(uint32(len(pl.Blocks)))
		for _, b := range pl.Blocks {
			u32(b.FirstDoc)
			u32(b.LastDoc)
			f64(b.MaxScore)
			u32(b.Offset)
			u32(b.Length)
			u32(uint32(b.Count))
			u32(b.Checksum)
			u8(b.MaxImpact)
		}
		u32(uint32(len(pl.Data)))
		h.Write(buf)
		h.Write(pl.Data)
		buf = buf[:0]
	}
	u64(idx.NormBaseAddr)
	u64(idx.TotalBytes)
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildGolden pins the hybrid index built from both corpus profiles,
// with and without impacts, byte for byte: the per-list scheme choice,
// every payload byte and every block's metadata. A faster build must keep
// these digests, which is what keeps every figure and simulated cost fixed.
// It also pins the bytes WriteTo writes for each index, and requires Read
// to give back the index that was written, block maxima rounded to the
// float32 the file stores.
func TestBuildGolden(t *testing.T) {
	for _, tc := range []struct {
		spec        corpus.Spec
		impacts     bool
		want, wfile string
	}{
		{corpus.ClueWebLike(0.01), false, "66ca68a0f2af607ef568f4efb1372060cfec818e01b0a79ce87b4fc3f510ba05",
			"fc80b6ff5b1cdab547bd4f86d9fb64bce69700ca4eed9a15229d4ea0c6b6c166"},
		{corpus.ClueWebLike(0.01), true, "1a45cb9047a7e91a35c982c44464e164790146300c8906c60996f2eb05f88352",
			"c105ba32560d906fbe27aef2c471c69b02e021e01cc7b81107f01161b6e6336d"},
		{corpus.CCNewsLike(0.01), false, "51232a7bce35ea2183f511b1806351f190550a05393aa6bd784e1c62912a7555",
			"439ab7b5ca2ab415b638face0f589c2f0cf2cbce6b0c3ecc11bd50e41c0b6021"},
		{corpus.CCNewsLike(0.01), true, "a7c2f30eb3c7a329a7722049aeb951acf1df5c7aa317a987ef4eb2b32c99b525",
			"a1888017929d178cca7b997f377b8091338fe5ccea3d5f2e815e21f8a870ff97"},
		{corpus.ClueWebLike(0.25), false, "fc96a6c8bdbf9c3eaa0f6b751304f4822003df9d81df6f8b2c101106955aad96",
			"2e5b909d87dd03db7b2d651a6b0875080c1edb2bdba6a59c4d839c1418e53a7e"},
		{corpus.ClueWebLike(0.25), true, "2c12a7a1c3a5454142be32da40df31c3c19b6b59bd256000aab0304045155798",
			"8e100a654e23353174b36a2c3f4b7f4a3b0ff91db5eeba85e3658b7a506e47ae"},
	} {
		c := corpus.Generate(tc.spec)
		idx := Build(c, BuildOptions{Scheme: compress.SchemeHybrid, Impacts: tc.impacts})
		name := fmt.Sprintf("%s/%d docs impacts=%v", tc.spec.Name, tc.spec.NumDocs, tc.impacts)
		if got := idx.digest(); got != tc.want {
			t.Errorf("%s: Build digest %s, want %s", name, got, tc.want)
		}
		var file bytes.Buffer
		if _, err := idx.WriteTo(&file); err != nil {
			t.Fatalf("%s: WriteTo: %v", name, err)
		}
		if sum := sha256.Sum256(file.Bytes()); hex.EncodeToString(sum[:]) != tc.wfile {
			t.Errorf("%s: WriteTo digest %x, want %s", name, sum, tc.wfile)
		}
		back, err := Read(&file)
		if err != nil {
			t.Fatalf("%s: Read: %v", name, err)
		}
		// The file keeps each block's maximum score as a float32.
		for _, pl := range idx.Lists {
			for b := range pl.Blocks {
				pl.Blocks[b].MaxScore = float64(float32(pl.Blocks[b].MaxScore))
			}
		}
		if got, want := back.digest(), idx.digest(); got != want {
			t.Errorf("%s: Read(WriteTo) digest %s, want %s", name, got, want)
		}
	}
}
