package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"boss/internal/compress"
	"boss/internal/corpus"
)

func serialized(t testing.TB) ([]byte, *Index) {
	t.Helper()
	idx := Build(corpus.Generate(corpus.CCNewsLike(0.003)), BuildOptions{Scheme: compress.SchemeHybrid})
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes(), idx
}

func TestBlockChecksumsPopulatedAndVerify(t *testing.T) {
	data, idx := serialized(t)
	for _, term := range idx.Terms()[:20] {
		pl := idx.Lists[term]
		for b := range pl.Blocks {
			if pl.Blocks[b].Checksum == 0 {
				t.Fatalf("list %q block %d has zero checksum", term, b)
			}
			if !pl.VerifyBlock(b) {
				t.Fatalf("list %q block %d fails verification at build time", term, b)
			}
		}
	}
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	for _, term := range got.Terms()[:20] {
		pl := got.Lists[term]
		for b := range pl.Blocks {
			if pl.Blocks[b].Checksum != idx.Lists[term].Blocks[b].Checksum {
				t.Fatalf("list %q block %d checksum not preserved by serialization", term, b)
			}
		}
	}
}

func TestVerifyBlockDetectsCorruption(t *testing.T) {
	_, idx := serialized(t)
	term := idx.Terms()[0]
	pl := idx.Lists[term]
	off := pl.Blocks[0].Offset
	pl.Data[off] ^= 0x40
	if pl.VerifyBlock(0) {
		t.Fatal("corrupted payload passed verification")
	}
	pl.Data[off] ^= 0x40
	if !pl.VerifyBlock(0) {
		t.Fatal("restored payload failed verification")
	}
}

// flipped returns data with the byte at pos xor mask.
func flipped(data []byte, pos int, mask byte) []byte {
	mut := bytes.Clone(data)
	mut[pos] ^= mask
	return mut
}

// bitFlips and truncations are where TestReadRejectsBitFlips flips a byte of
// a serialized index of n bytes and where TestReadRejectsTruncation cuts it.
func bitFlips(n int) []int    { return []int{0, 11, n / 3, n / 2, n - 20, n - 1} }
func truncations(n int) []int { return []int{0, 4, n / 4, n / 2, n - 5, n - 1} }

// Flipping any single byte anywhere in the file must yield ErrCorrupt —
// the footer stream CRC seals regions no structural check covers.
func TestReadRejectsBitFlips(t *testing.T) {
	data, _ := serialized(t)
	for _, pos := range bitFlips(len(data)) {
		_, err := Read(bytes.NewReader(flipped(data, pos, 0x01)))
		if err == nil {
			t.Fatalf("byte flip at %d/%d went undetected", pos, len(data))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("byte flip at %d: error %v does not wrap ErrCorrupt", pos, err)
		}
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	data, _ := serialized(t)
	for _, keep := range truncations(len(data)) {
		_, err := Read(bytes.NewReader(data[:keep]))
		if err == nil {
			t.Fatalf("truncation to %d/%d bytes went undetected", keep, len(data))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d: error %v does not wrap ErrCorrupt", keep, err)
		}
	}
}

// implausibleLists returns data with its list count blasted to the maximum.
func implausibleLists(data []byte) []byte {
	// numLists lives right after magic(8) + numDocs(4) + avgDocLen(8) +
	// k1(8) + b(8) = offset 36.
	mut := bytes.Clone(data)
	copy(mut[36:], []byte{0xff, 0xff, 0xff, 0xff})
	return mut
}

func TestReadRejectsImplausibleLengths(t *testing.T) {
	data, _ := serialized(t)
	_, err := Read(bytes.NewReader(implausibleLists(data)))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("implausible list count: error %v does not wrap ErrCorrupt", err)
	}
}

// A cursor over a corrupted block must stop with a typed error rather
// than score garbage or publish it to a cache.
func TestCursorStopsOnCorruptBlock(t *testing.T) {
	_, idx := serialized(t)
	var pl *PostingList
	for _, term := range idx.Terms() {
		if len(idx.Lists[term].Blocks) >= 3 {
			pl = idx.Lists[term]
			break
		}
	}
	if pl == nil {
		t.Skip("no multi-block list in test corpus")
	}
	pl.Data[pl.Blocks[1].Offset] ^= 0xff

	cur := NewCursor(idx, pl)
	defer cur.Release()
	seen := 0
	for cur.Valid() {
		seen++
		cur.Next()
	}
	if cur.Err() == nil {
		t.Fatal("cursor consumed a corrupt block without error")
	}
	if !errors.Is(cur.Err(), ErrCorrupt) {
		t.Fatalf("cursor error %v does not wrap ErrCorrupt", cur.Err())
	}
	if want := int(pl.Blocks[0].Count); seen != want {
		t.Fatalf("cursor consumed %d postings, want exactly the %d intact ones", seen, want)
	}
}

// serializedImpacts is serialized with quantized impacts in the payloads
// and the "BOSSIMP1" section between norms and footer.
func serializedImpacts(t testing.TB) ([]byte, *Index) {
	t.Helper()
	idx := Build(corpus.Generate(corpus.CCNewsLike(0.003)),
		BuildOptions{Scheme: compress.SchemeHybrid, Impacts: true})
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes(), idx
}

// TestImpactSectionRoundTrip: quantization steps, list maxima and
// per-block maxima survive serialization, and the impact bytes riding the
// block payload tails come back with them.
func TestImpactSectionRoundTrip(t *testing.T) {
	data, idx := serializedImpacts(t)
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	for _, term := range idx.Terms() {
		want, have := idx.Lists[term], got.Lists[term]
		if !want.HasImpacts() {
			t.Fatalf("list %q built without impacts despite Impacts: true", term)
		}
		if have.ImpactStep != want.ImpactStep || have.MaxImpact != want.MaxImpact {
			t.Fatalf("list %q impact header not preserved: step %v/%v max %d/%d",
				term, have.ImpactStep, want.ImpactStep, have.MaxImpact, want.MaxImpact)
		}
		for b := range want.Blocks {
			if have.Blocks[b].MaxImpact != want.Blocks[b].MaxImpact {
				t.Fatalf("list %q block %d max impact not preserved", term, b)
			}
			imps := have.BlockImpacts(b)
			if len(imps) != int(have.Blocks[b].Count) {
				t.Fatalf("list %q block %d carries %d impact bytes, want %d",
					term, b, len(imps), have.Blocks[b].Count)
			}
			if !bytes.Equal(imps, want.BlockImpacts(b)) {
				t.Fatalf("list %q block %d impact bytes diverged", term, b)
			}
		}
	}
}

// TestReadOldFormatWithoutImpacts: an index serialized without impacts —
// the exact byte stream every pre-impact writer produced — still loads,
// and reports no impact capability rather than garbage steps.
func TestReadOldFormatWithoutImpacts(t *testing.T) {
	data, _ := serialized(t)
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Read of impact-free file: %v", err)
	}
	for _, term := range got.Terms() {
		if got.Lists[term].HasImpacts() {
			t.Fatalf("list %q reports impacts in an impact-free file", term)
		}
	}
}

// TestReadBadImpactMagic: corrupting the section magic must fail with
// ErrCorrupt and an error message naming the impact section, so an
// operator diffing old and new binaries knows which section to suspect.
func TestReadBadImpactMagic(t *testing.T) {
	data, _ := serializedImpacts(t)
	_, err := Read(bytes.NewReader(badImpactMagic(t, data)))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad section magic: error %v does not wrap ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "impact section") {
		t.Fatalf("error %q does not name the impact section", err)
	}
}

// badImpactMagic returns a serialized impact index with a bit of its impact
// section's magic flipped.
func badImpactMagic(t testing.TB, data []byte) []byte {
	at := bytes.Index(data, []byte("BOSSIMP1"))
	if at < 0 {
		t.Fatal("serialized impact index carries no section magic")
	}
	return flipped(data, at, 0x04)
}

// TestReadRejectsImpactBitFlips extends the corrupt-file sweep into the
// impact section: flips in the per-list headers, the per-block maxima and
// the payload impact tails must all surface as ErrCorrupt.
func TestReadRejectsImpactBitFlips(t *testing.T) {
	data, _ := serializedImpacts(t)
	at := bytes.Index(data, []byte("BOSSIMP1"))
	if at < 0 {
		t.Fatal("serialized impact index carries no section magic")
	}
	// Sweep the section body (headers + maxima) and a payload tail byte.
	for _, pos := range []int{at + 8, at + 9, at + 16, (at + len(data)) / 2, len(data) - 24} {
		mut := bytes.Clone(data)
		mut[pos] ^= 0x01
		_, err := Read(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("impact-section byte flip at %d/%d went undetected", pos, len(data))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("impact-section byte flip at %d: error %v does not wrap ErrCorrupt", pos, err)
		}
	}
}

// reseal recomputes the footer CRC of a serialized impact-free index, so a
// test's edit reaches the checks behind the seal.
func reseal(data []byte) []byte {
	n := len(data) - 4
	binary.LittleEndian.PutUint32(data[n:], crc32.Checksum(data[:n-len(footerMagic)], castagnoli))
	return data
}

// renamedSecond returns a resealed serialized index whose second list's
// term is replaced by term, which must have the same length.
func renamedSecond(t testing.TB, term string) []byte {
	data, idx := serialized(t)
	terms := idx.Terms()
	if len(terms[1]) != len(term) {
		t.Fatalf("second term %q and %q differ in length", terms[1], term)
	}
	first := idx.Lists[terms[0]]
	at := len(indexMagic) + 32 + listWireBytes + len(terms[0]) + blockWireBytes*len(first.Blocks) + len(first.Data)
	if got := string(data[at+2 : at+2+len(term)]); got != terms[1] {
		t.Fatalf("second list's term at %d reads %q, want %q", at, got, terms[1])
	}
	copy(data[at+2:], term)
	return reseal(data)
}

// A file whose terms are not strictly increasing is corrupt, though its
// CRC holds: WriteTo never writes one, a repeated term would drop a list
// and the impact section is read in file order.
func TestReadRejectsOutOfOrderTerms(t *testing.T) {
	data, idx := serialized(t)
	first := idx.Terms()[0]
	if _, err := Read(bytes.NewReader(reseal(bytes.Clone(data)))); err != nil {
		t.Fatalf("resealed file unchanged: %v", err)
	}
	for _, term := range []string{first, "s" + first[1:]} {
		_, err := Read(bytes.NewReader(renamedSecond(t, term)))
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "not after") {
			t.Errorf("second list renamed %q: error %v, want ErrCorrupt for the term order", term, err)
		}
	}
}

// Read decodes the same index however the stream splits its bytes: the
// decoder's refills and its running CRC meet at every boundary.
func TestReadSplitStreams(t *testing.T) {
	data, idx := serializedImpacts(t)
	want, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]io.Reader{
		"one byte": iotest.OneByteReader(bytes.NewReader(data)),
		"half":     iotest.HalfReader(bytes.NewReader(data)),
		"data+err": iotest.DataErrReader(bytes.NewReader(data)),
	} {
		got, err := Read(r)
		if err != nil {
			t.Fatalf("%s reader: %v", name, err)
		}
		if got.digest() != want.digest() || len(got.Lists) != len(idx.Lists) {
			t.Fatalf("%s reader: index differs from one read whole", name)
		}
	}
}

// stopAfter yields its bytes, then fails the test if read again.
type stopAfter struct {
	t    *testing.T
	data []byte
}

func (s *stopAfter) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		s.t.Fatal("Read asked for more bytes than the record it failed on")
	}
	n := copy(p, s.data)
	s.data = s.data[n:]
	return n, nil
}

// A stream with a wrong magic fails on the magic alone: Read asks the
// reader for nothing more, so a stream that never ends cannot hold it.
func TestReadStopsAtBadMagic(t *testing.T) {
	_, err := Read(&stopAfter{t: t, data: []byte("NOTANIDX")})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: error %v does not wrap ErrCorrupt", err)
	}
}

// A length field allocates no more than wire.MaxPrealloc bytes ahead of
// the bytes that have arrived: each of these headers announces gigabytes
// that the stream then does not hold.
func TestReadAllocatesAsBytesArrive(t *testing.T) {
	le := binary.LittleEndian
	header := func(docs, lists uint32) []byte {
		b := le.AppendUint32([]byte(indexMagic), docs)
		b = append(b, make([]byte, 24)...) // avgDocLen, k1, b
		return le.AppendUint32(b, lists)
	}
	list := func(blocks, dataLen uint32) []byte {
		b := append(le.AppendUint16(header(1, 1), 1), 'a', 0)
		b = append(b, make([]byte, 4+8+8+8)...) // df, idf, maxScore, baseAddr
		b = le.AppendUint32(b, blocks)
		return le.AppendUint32(b, dataLen)
	}
	for name, data := range map[string][]byte{
		"lists":  header(1, maxLists),
		"norms":  append(header(maxDocs, 0), make([]byte, 8)...),
		"blocks": list(maxBlocks, 0)[:len(list(0, 0))-4],
		"data":   list(0, maxDataBytes),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(io.MultiReader(bytes.NewReader(data), bytes.NewReader(make([]byte, 1<<16))))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v does not wrap ErrCorrupt", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
			t.Errorf("%s: Read allocated %d bytes for a %d-byte stream", name, got, len(data)+1<<16)
		}
	}
}

// FuzzIndexRead feeds arbitrary bytes to Read, as FuzzDocstoreOpen does the
// document store's. Every load error must wrap ErrCorrupt. An index that
// loads must survive a walk of every block through VerifyBlock and
// DecodeBlock: a mutant can reseal the footer CRC over a bad block, so a
// block that fails its checksum is a detection, as it is at fetch time — a
// panic or a runaway allocation is not. The seeds are the files the Read
// tests above build: both valid forms and every corruption they try,
// including a resealed file that repeats a term.
func FuzzIndexRead(f *testing.F) {
	data, idx := serialized(f)
	imp, _ := serializedImpacts(f)
	repeated := renamedSecond(f, idx.Terms()[0])
	for _, seed := range [][]byte{data, imp, implausibleLists(data), badImpactMagic(f, imp), repeated} {
		f.Add(seed)
	}
	for _, pos := range bitFlips(len(data)) {
		f.Add(flipped(data, pos, 0x01))
	}
	for _, keep := range truncations(len(data)) {
		f.Add(data[:keep])
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		idx, err := Read(bytes.NewReader(in))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("load error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		for _, pl := range idx.Lists {
			for b := range pl.Blocks {
				if pl.VerifyBlock(b) {
					idx.DecodeBlock(pl, b, nil, nil)
				}
			}
		}
	})
}

// BenchmarkIndexWriteRead writes and reads back the bench's sparse-q7
// index: ClueWebLike(0.25) with impacts, the file the facade deployment
// round-trips at set-up.
func BenchmarkIndexWriteRead(b *testing.B) {
	idx := Build(corpus.Generate(corpus.ClueWebLike(0.25)), BuildOptions{Scheme: compress.SchemeHybrid, Impacts: true})
	var file bytes.Buffer
	if _, err := idx.WriteTo(&file); err != nil {
		b.Fatal(err)
	}
	data := bytes.Clone(file.Bytes())
	b.Run("write", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			file.Reset()
			if _, err := idx.WriteTo(&file); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Read(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
