package index

import (
	"bytes"
	"errors"
	"strings"
	"testing"

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

// FuzzIndexRead feeds arbitrary bytes to Read, as FuzzDocstoreOpen does the
// document store's. Every load error must wrap ErrCorrupt. An index that
// loads must survive a walk of every block through VerifyBlock and
// DecodeBlock: a mutant can reseal the footer CRC over a bad block, so a
// block that fails its checksum is a detection, as it is at fetch time — a
// panic or a runaway allocation is not. The seeds are the files the Read
// tests above build: both valid forms and every corruption they try.
func FuzzIndexRead(f *testing.F) {
	data, _ := serialized(f)
	imp, _ := serializedImpacts(f)
	for _, seed := range [][]byte{data, imp, implausibleLists(data), badImpactMagic(f, imp)} {
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
