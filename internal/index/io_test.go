package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"boss/internal/compress"
	"boss/internal/corpus"
	"boss/internal/decomp"
	"boss/internal/wire"
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
	// numLists follows the flags.
	mut := bytes.Clone(data)
	copy(mut[flagsAt+4:], []byte{0xff, 0xff, 0xff, 0xff})
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
// and the impact fields inline, behind the header's flagImpacts.
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

// flagsAt is the offset of the header's flags field.
const flagsAt = len(indexMagic) + 4 + 8 + 8 + 8

// listAt returns the offset of the record of idx's i-th list in term order
// in the file WriteTo writes.
func listAt(idx *Index, i int) int {
	terms := idx.Terms()
	at := len(indexMagic) + headerWireBytes
	for _, term := range terms[:i] {
		pl := idx.Lists[term]
		at += listWireBytes + len(term) + blockWireBytes*len(pl.Blocks) + len(pl.Data)
		if pl.HasImpacts() {
			at += impactWireBytes + len(pl.Blocks)
		}
	}
	return at
}

// blockAt returns the offset of block b's record in the file of idx's i-th
// list in term order.
func blockAt(idx *Index, i, b int) int {
	term := idx.Terms()[i]
	at, stride := listAt(idx, i)+2+len(term)+1+4+8+8+4, blockWireBytes
	if idx.Lists[term].HasImpacts() {
		at, stride = at+impactWireBytes, stride+1
	}
	return at + b*stride
}

// TestImpactSectionRoundTrip: quantization steps, list maxima and
// per-block maxima survive serialization, and the impact bytes riding the
// block payload tails come back with them.
func TestImpactSectionRoundTrip(t *testing.T) {
	data, idx := serializedImpacts(t)
	if flags := binary.LittleEndian.Uint32(data[flagsAt:]); flags != flagImpacts {
		t.Fatalf("impact index written with flags %#x, want %#x", flags, flagImpacts)
	}
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

// TestReadOldFormatWithoutImpacts: an index built without impacts is
// written with no flag and no impact field, and loads reporting no impact
// capability rather than garbage steps.
func TestReadOldFormatWithoutImpacts(t *testing.T) {
	data, idx := serialized(t)
	if flags := binary.LittleEndian.Uint32(data[flagsAt:]); flags != 0 {
		t.Fatalf("impact-free index written with flags %#x", flags)
	}
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Read of impact-free file: %v", err)
	}
	if got.digest() != idx.digest() {
		t.Fatal("impact-free file reads back a different index")
	}
	for _, term := range got.Terms() {
		if got.Lists[term].HasImpacts() {
			t.Fatalf("list %q reports impacts in an impact-free file", term)
		}
	}
}

// withFlags returns a resealed copy of a serialized index with its header
// flags replaced.
func withFlags(data []byte, flags uint32) []byte {
	mut := bytes.Clone(data)
	binary.LittleEndian.PutUint32(mut[flagsAt:], flags)
	return reseal(mut)
}

// TestReadRejectsUnknownFlags: a flag bit this reader does not know is
// corrupt, though the CRC holds, and so is an impact file read as if it had
// none, or the reverse: the records no longer line up.
func TestReadRejectsUnknownFlags(t *testing.T) {
	data, _ := serialized(t)
	imp, _ := serializedImpacts(t)
	for _, tc := range []struct {
		name, want string
		file       []byte
	}{
		{"unknown bit", "unknown flags", withFlags(data, 1<<1)},
		{"impacts cleared", "", withFlags(imp, 0)},
		{"impacts set", "", withFlags(data, flagImpacts)},
	} {
		_, err := Read(bytes.NewReader(tc.file))
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want ErrCorrupt naming %q", tc.name, err, tc.want)
		}
	}
}

// TestReadRejectsImpactBitFlips extends the corrupt-file sweep into the
// impact fields: flips in a list's step and maximum, in a block's maximum
// and in a payload impact tail must all surface as ErrCorrupt.
func TestReadRejectsImpactBitFlips(t *testing.T) {
	data, idx := serializedImpacts(t)
	step := blockAt(idx, 0, 0) - 4 - impactWireBytes
	for _, pos := range []int{flagsAt, step, step + 4, blockAt(idx, 0, 0) + blockWireBytes, blockAt(idx, 1, 0) + blockWireBytes, len(data) - 8*idx.NumDocs - 13} {
		_, err := Read(bytes.NewReader(flipped(data, pos, 0x01)))
		if err == nil {
			t.Fatalf("impact byte flip at %d/%d went undetected", pos, len(data))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("impact byte flip at %d: error %v does not wrap ErrCorrupt", pos, err)
		}
	}
}

// reseal recomputes the footer CRC of a serialized index, so a test's edit
// reaches the checks behind the seal.
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
	at := listAt(idx, 1)
	if got := string(data[at+2 : at+2+len(term)]); got != terms[1] {
		t.Fatalf("second list's term at %d reads %q, want %q", at, got, terms[1])
	}
	copy(data[at+2:], term)
	return reseal(data)
}

// A file whose terms are not strictly increasing is corrupt, though its
// CRC holds: WriteTo never writes one, and a repeated term would drop a
// list.
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

// impossibleBlocks are edits to a file's block metadata that Read refuses
// behind the seal, one per rule, with the words of the error that must
// refuse each. Each edits the first list in term order, which spans several
// full blocks, of a file from serialized, or from serializedImpacts where
// impacts is set.
var impossibleBlocks = []struct {
	name, want string
	impacts    bool
	edit       func(data []byte, idx *Index)
}{
	{"empty block", "is empty", false, func(data []byte, idx *Index) {
		put16(data, blockAt(idx, 0, 0)+24, 0)
	}},
	{"first docID past the norms", "past the norms", false, func(data []byte, idx *Index) {
		put32(data, blockAt(idx, 0, 0), uint32(idx.NumDocs)+1000)
	}},
	{"last docID past the norms", "past the norms", false, func(data []byte, idx *Index) {
		pl := idx.Lists[idx.Terms()[0]]
		put32(data, blockAt(idx, 0, len(pl.Blocks)-1)+4, uint32(idx.NumDocs))
	}},
	{"more postings than docIDs", "more postings than docIDs", false, func(data []byte, idx *Index) {
		b := idx.Lists[idx.Terms()[0]].Blocks[0]
		put32(data, blockAt(idx, 0, 0)+4, b.FirstDoc+uint32(b.Count)-2)
	}},
	{"overlapping blocks", "after the previous block", false, func(data []byte, idx *Index) {
		put32(data, blockAt(idx, 0, 1), idx.Lists[idx.Terms()[0]].Blocks[0].LastDoc)
	}},
	{"counts off the df", "df", false, func(data []byte, idx *Index) {
		term := idx.Terms()[0]
		put32(data, listAt(idx, 0)+2+len(term)+1, uint32(idx.Lists[term].DF)+1)
	}},
	{"payload shorter than its impacts", "impact codes", true, func(data []byte, idx *Index) {
		put32(data, blockAt(idx, 0, 0)+20, uint32(idx.Lists[idx.Terms()[0]].Blocks[0].Count)-1)
	}},
}

func put16(data []byte, at int, v uint16) { binary.LittleEndian.PutUint16(data[at:], v) }
func put32(data []byte, at int, v uint32) { binary.LittleEndian.PutUint32(data[at:], v) }

// impossibleFiles returns each of impossibleBlocks applied to its file and
// resealed.
func impossibleFiles(t testing.TB) [][]byte {
	data, idx := serialized(t)
	imp, impIdx := serializedImpacts(t)
	var files [][]byte
	for _, m := range impossibleBlocks {
		mut, of := bytes.Clone(data), idx
		if m.impacts {
			mut, of = bytes.Clone(imp), impIdx
		}
		m.edit(mut, of)
		files = append(files, reseal(mut))
	}
	return files
}

// TestReadRejectsImpossibleBlocks: block metadata that no build writes is
// corrupt, though the CRC holds. Each edit would otherwise load, and later
// index the norms past their end, decode too few postings, or slice an
// impact tail out of range. A payload forged together with a matching
// block CRC is out of scope: the block CRC is what vouches for a payload.
func TestReadRejectsImpossibleBlocks(t *testing.T) {
	for i, file := range impossibleFiles(t) {
		m := impossibleBlocks[i]
		_, err := Read(bytes.NewReader(file))
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), m.want) {
			t.Errorf("%s: error %v, want ErrCorrupt naming %q", m.name, err, m.want)
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
		b = append(b, make([]byte, 24+4)...) // avgDocLen, k1, b, flags
		return le.AppendUint32(b, lists)
	}
	list := func(blocks, dataLen uint32) []byte {
		b := append(le.AppendUint16(header(1, 1), 1), 'a', 0)
		b = append(b, make([]byte, 4+8+8)...) // df, idf, maxScore
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
// document store's, and then the same bytes with the footer CRC resealed
// over them, so that a mutation reaches the checks behind the seal. Every
// load error must wrap ErrCorrupt. An index that loads must hold every
// invariant of its block metadata that Read checks (impossible, below), and
// every block that passes VerifyBlock must decode without a panic, and on
// an impact list give its impact codes: a block that fails its checksum is
// a detection, as it is at fetch time — a panic or a runaway allocation is
// not. An index loaded from the input as it came is decoded by DecodeBlock.
// A resealed one is decoded by the accelerator's decompression modules,
// which report a payload that does not decode as an error: a block's Count
// and its list's Scheme lie outside the block CRC, so a forged seal can
// pair a payload with the wrong ones, which DecodeBlock trusts. The seeds
// are the files the Read tests above build: both valid forms and every
// corruption they try, resealed ones included.
func FuzzIndexRead(f *testing.F) {
	data, idx := serialized(f)
	imp, _ := serializedImpacts(f)
	repeated := renamedSecond(f, idx.Terms()[0])
	for _, seed := range [][]byte{data, imp, implausibleLists(data), withFlags(data, 1<<1), repeated} {
		f.Add(seed)
	}
	for _, pos := range bitFlips(len(data)) {
		f.Add(flipped(data, pos, 0x01))
	}
	for _, keep := range truncations(len(data)) {
		f.Add(data[:keep])
	}
	for _, file := range impossibleFiles(f) {
		f.Add(file)
	}
	var mods [compress.NumSchemes]*decomp.Module
	for s := range mods {
		mods[s] = decomp.NewModuleFor(compress.Scheme(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		load(t, in, func(idx *Index, pl *PostingList, b int) { idx.DecodeBlock(pl, b, nil, nil) })
		if len(in) < wire.FooterBytes {
			return
		}
		load(t, reseal(bytes.Clone(in)), func(_ *Index, pl *PostingList, b int) {
			meta := &pl.Blocks[b]
			payload := pl.Data[meta.Offset : meta.Offset+meta.Length]
			mod := mods[pl.Scheme]
			if _, used, _, err := mod.DecodeInto(nil, payload, int(meta.Count), meta.FirstDoc, true); err == nil {
				_, _, _, _ = mod.DecodeInto(nil, payload[used:], int(meta.Count), 0, false)
			}
		})
	})
}

// load reads in, and walks the index it loads as FuzzIndexRead requires,
// decoding each block that verifies with decode.
func load(t *testing.T, in []byte, decode func(idx *Index, pl *PostingList, b int)) {
	idx, err := Read(bytes.NewReader(in))
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("load error %v does not wrap ErrCorrupt", err)
		}
		return
	}
	if msg := impossible(idx); msg != "" {
		t.Fatalf("loaded an impossible index: %s", msg)
	}
	for _, pl := range idx.Lists {
		for b := range pl.Blocks {
			if pl.VerifyBlock(b) {
				decode(idx, pl, b)
				if pl.HasImpacts() {
					pl.BlockImpacts(b)
				}
			}
		}
	}
}

// impossible describes the first block metadata of idx that no build
// writes, or returns "".
func impossible(idx *Index) string {
	for _, pl := range idx.Lists {
		postings := 0
		for i, b := range pl.Blocks {
			switch {
			case int(b.Offset)+int(b.Length) > len(pl.Data):
				return fmt.Sprintf("list %q block %d exceeds its payload", pl.Term, i)
			case b.Count == 0 || b.FirstDoc > b.LastDoc || int(b.LastDoc) >= idx.NumDocs || int(b.LastDoc-b.FirstDoc)+1 < int(b.Count):
				return fmt.Sprintf("list %q block %d: %d postings in [%d, %d]", pl.Term, i, b.Count, b.FirstDoc, b.LastDoc)
			case i > 0 && b.FirstDoc <= pl.Blocks[i-1].LastDoc:
				return fmt.Sprintf("list %q block %d overlaps block %d", pl.Term, i, i-1)
			case pl.HasImpacts() && b.Length < uint32(b.Count):
				return fmt.Sprintf("list %q block %d is shorter than its impacts", pl.Term, i)
			}
			postings += int(b.Count)
		}
		if postings != pl.DF {
			return fmt.Sprintf("list %q holds %d postings, df %d", pl.Term, postings, pl.DF)
		}
	}
	return ""
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
