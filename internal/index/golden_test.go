package index

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"testing"

	"boss/internal/compress"
	"boss/internal/corpus"
)

// digest hashes every built byte of the index in term order: per list the
// scheme, payload, each block's metadata and the list-wide maxima, then the
// footprint.
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
	u64(idx.TotalBytes)
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildGolden pins the hybrid index built from both corpus profiles,
// with and without impacts, byte for byte: the per-list scheme choice,
// every payload byte and every block's metadata. A faster build must keep
// these digests, which is what keeps every figure and simulated cost fixed.
// It also pins the bytes WriteTo writes for each index, and requires Read
// to give back the index that was written, bit for bit: the digest, the
// header and every norm.
func TestBuildGolden(t *testing.T) {
	for _, tc := range []struct {
		spec        corpus.Spec
		impacts     bool
		want, wfile string
	}{
		{corpus.ClueWebLike(0.01), false, "5928c91e09b8f7f5703060af00a5d7ebfc445123ccdb277c98fe65ae41b50392",
			"d952c8616e016ef9f69f5be8e66a176e458c5fad0cee41d464a379ae12615c0d"},
		{corpus.ClueWebLike(0.01), true, "232557fd029a9299062c08b7fff69aba7a377d60a7748fecebd2b7a2d80f3ded",
			"f925ec281cad2b1664a6e3587513fe17e969710e2f2b5f11b23342f673bcc890"},
		{corpus.CCNewsLike(0.01), false, "9e22da5c9f1b238d9742b6f28b6ab09c1030df703ea62454a51ba736f79999c2",
			"87dec00aaf8618568911d9586a7f86b7b0e0a907460a837119542fa21e498b77"},
		{corpus.CCNewsLike(0.01), true, "e295178da507b27033c5b9dfae268ad92f2d488372a5f9d1f7e2d7d20fe5da48",
			"f8357bfc6ebfbe47ad3d5d9f5b2f5af56b1c53948805fc21d147bd677444352c"},
		{corpus.ClueWebLike(0.25), false, "dc8f51ef2b3fe74d21f0906cde6f8489316850744d0590ac2efeaa698ba08d7c",
			"1cef4d6ba9f058e3215f5157538a20d16cd7dd5ad7dd0c58807b450848c8d9db"},
		{corpus.ClueWebLike(0.25), true, "650551d86ecdf51a8fea79e1c8b1171464be67212309687feabb6c0e49e78be0",
			"b38d94e3589bd39c9dace86151d9dc46d64969c20e9d52b21fc8927828063f55"},
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
		if got, want := back.digest(), idx.digest(); got != want {
			t.Errorf("%s: Read(WriteTo) digest %s, want %s", name, got, want)
		}
		if back.NumDocs != idx.NumDocs || back.AvgDocLen != idx.AvgDocLen || back.Params != idx.Params ||
			!slices.Equal(back.DocNorms, idx.DocNorms) {
			t.Errorf("%s: Read(WriteTo) header or norms differ from the built index", name)
		}
	}
}
