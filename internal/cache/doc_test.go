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

// TestDocClassSlabReuse: a recycled entry's byte slab is reused when big
// enough, and the budget charge accounts for both slabs.
func TestDocClassSlabReuse(t *testing.T) {
	c := NewSharded(1<<20, 1)
	k := Key{List: 2, Class: ClassDoc}
	e := c.ReserveBytes(10)
	data := fillBytes(e, k, 10)
	e = c.PublishBytes(k, e, data)
	charge := e.bytes
	if charge < int64(cap(e.bbuf))+entryOverheadBytes {
		t.Fatalf("budget charge %d does not cover byte slab %d", charge, cap(e.bbuf))
	}
	c.Release(e)
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}
