package corpus

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// digest hashes every output of Generate: each term's name and
// postings in rank order, the document lengths and the derived statistics.
func (c *Corpus) digest() string {
	h := sha256.New()
	var buf []byte
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	u32(uint32(len(c.Terms)))
	for i := range c.Terms {
		tp := &c.Terms[i]
		u32(uint32(len(tp.Term)))
		buf = append(buf, tp.Term...)
		u32(uint32(len(tp.Postings)))
		for _, p := range tp.Postings {
			u32(p.DocID)
			u32(p.TF)
		}
		h.Write(buf)
		buf = buf[:0]
	}
	for _, l := range c.DocLens {
		u32(l)
	}
	u64(math.Float64bits(c.AvgDocLen))
	u64(uint64(c.TotalPostings))
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateGolden pins Generate's output byte for byte. Every figure,
// results_full.txt and every simulated cost is a function of the corpus,
// so a change to the sampler must either keep these digests or say why
// the figures move.
func TestGenerateGolden(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{ClueWebLike(0.01), "b3b08fde4621b607f84fc89ead08bc58b4524853a5e7c03f9b076fada966b41d"},
		{CCNewsLike(0.01), "07fbc88ce71243d2e9eb3d12b286e04a3e96302d80c999822821e77cda8a6b2f"},
		// The bench's scale: large lists take sampler branches the small
		// corpora may never reach.
		{ClueWebLike(0.25), "d31de9b56b516a9d77dd510f7f6efdce7b9f4f2eb77465d8f8110655e2b35ca2"},
	} {
		if got := Generate(tc.spec).digest(); got != tc.want {
			t.Errorf("%s/%d docs: Generate digest %s, want %s", tc.spec.Name, tc.spec.NumDocs, got, tc.want)
		}
	}
}
