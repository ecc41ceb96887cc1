package cache

import (
	"bytes"
	"testing"
)

// fillBytes builds a byte payload derived from the key.
func fillBytes(e *Entry, k Key, n int) []byte {
	b := e.ByteBuf(n)
	for i := range b {
		b[i] = byte(uint32(k.List)*31 + k.Block*7 + uint32(i))
	}
	return b
}

// TestDocClassRoundTrip publishes a doc-class byte entry and reads it
// back pinned and zero-copy, alongside a posting entry under the same
// (List, Block) — the Class field keeps the namespaces apart.
func TestDocClassRoundTrip(t *testing.T) {
	c := NewSharded(1<<20, 1)
	pk := Key{List: 7, Block: 3}
	dk := Key{List: 7, Block: 3, Class: ClassDoc}

	pe := c.Reserve(8)
	docs, tfs := fill(pe, pk, 8)
	pe = c.Publish(pk, pe, docs, tfs, 11)

	de := c.ReserveBytes(100)
	data := fillBytes(de, dk, 100)
	de = c.PublishBytes(dk, de, data)
	if got := de.Data(); !bytes.Equal(got, data) {
		t.Fatal("published data mismatch")
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	c.Release(pe)
	c.Release(de)

	// Both keys must hit independently, with the right payloads and, for
	// the posting entry, the recorded cycles.
	if e := c.Get(pk); e == nil || e.Cycles() != 11 || len(e.Docs()) != 8 || e.Data() != nil {
		t.Fatalf("posting key: %+v", e)
	} else {
		c.Release(e)
	}
	e := c.Get(dk)
	if e == nil || !bytes.Equal(e.Data(), data) || e.Docs() != nil {
		t.Fatalf("doc key: %+v", e)
	}
	c.Release(e)

	st := c.Stats()
	if st.PostingHits != 1 || st.DocHits != 1 || st.Hits != 2 {
		t.Fatalf("hit split: %+v", st)
	}
	if st.DocHitRate() != 1 || st.PostingHitRate() != 1 {
		t.Fatalf("rates: %+v", st)
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDocClassMissSplit: misses are attributed to the class of the key
// looked up.
func TestDocClassMissSplit(t *testing.T) {
	c := NewSharded(1<<20, 1)
	if e := c.Get(Key{List: 1, Class: ClassDoc}); e != nil {
		t.Fatal("unexpected hit")
	}
	if e := c.Get(Key{List: 1}); e != nil {
		t.Fatal("unexpected hit")
	}
	st := c.Stats()
	if st.DocMisses != 1 || st.PostingMisses != 1 || st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("miss split: %+v", st)
	}
	if st.DocHitRate() != 0 || st.HitRate() != 0 {
		t.Fatalf("rates: %+v", st)
	}
}

// TestDocClassSlabReuse: a doc entry holds one byte slab — no posting slab,
// not even one a recycled entry kept — sized to the block's size class and
// charged that slab plus the entry overhead; a released byte slab is reused
// by the next reservation of its class.
func TestDocClassSlabReuse(t *testing.T) {
	c := NewSharded(1<<20, 1)
	// A posting entry recycled just before must not lend the doc entry its slab.
	c.Release(c.Reserve(128))
	k := Key{List: 2, Class: ClassDoc}
	e := c.ReserveBytes(100)
	data := fillBytes(e, k, 100)
	e = c.PublishBytes(k, e, data)
	if e.buf != nil || cap(e.bbuf) != 128 {
		t.Fatalf("doc entry holds a %d-value posting slab and a %d-byte byte slab, want none and 128", cap(e.buf), cap(e.bbuf))
	}
	if want := int64(cap(e.bbuf)) + entryOverheadBytes; e.bytes != want {
		t.Fatalf("budget charge %d, want the byte slab plus overhead, %d", e.bytes, want)
	}
	c.Release(e)
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if !raceEnabled { // -race randomizes sync.Pool reuse
		d := c.ReserveBytes(70)
		c.Release(d)
		again := c.ReserveBytes(75)
		if again != d {
			t.Fatal("a released byte slab was not reused by the next reservation of its class")
		}
		c.Release(again)
	}
}
