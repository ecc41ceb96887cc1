package index

import (
	"fmt"
	"sync"
)

// cursorBuf is the decode scratch one cursor owns: docs/tfs slices sized to
// a block. Buffers cycle through a sync.Pool so query-rate cursor churn does
// not allocate per query (batch throughput would otherwise be GC-bound).
type cursorBuf struct {
	docs []uint32
	tfs  []uint32
}

var cursorBufPool = sync.Pool{New: func() any { return new(cursorBuf) }}

// Cursor iterates a posting list block by block, decoding lazily and using
// block metadata to skip (the software analogue of the hardware block-fetch
// path). Models charge memory traffic through the OnBlock callback, which
// fires once per block actually decoded.
//
// A Cursor is not safe for concurrent use. Callers that finish with a
// cursor should Release it so its decode buffers return to the shared pool;
// releasing is optional (an un-released cursor is just garbage-collected).
type Cursor struct {
	idx *Index
	pl  *PostingList

	// OnBlock, if non-nil, is called with the block number each time a
	// block's payload is decoded (i.e. fetched from memory).
	OnBlock func(b int)

	block int // next block to decode
	docs  []uint32
	tfs   []uint32
	pos   int
	done  bool
	buf   *cursorBuf // pooled owner of docs/tfs; nil after Release

	// err records a block integrity failure; the cursor then reports
	// done so corrupt postings are never scored. Callers that must
	// distinguish exhaustion from corruption check Err.
	err error
}

// NewCursor returns a cursor positioned at the first posting of pl.
//
//boss:pool-escapes the pooled buffer belongs to the cursor until Release.
func NewCursor(idx *Index, pl *PostingList) *Cursor {
	buf := cursorBufPool.Get().(*cursorBuf)
	c := &Cursor{idx: idx, pl: pl, buf: buf, docs: buf.docs[:0], tfs: buf.tfs[:0]}
	c.loadNextBlock()
	return c
}

// Release returns the cursor's decode buffers to the shared pool. The
// cursor must not be used afterwards; Release is idempotent.
func (c *Cursor) Release() {
	if c.buf == nil {
		return
	}
	c.buf.docs, c.buf.tfs = c.docs[:0], c.tfs[:0]
	cursorBufPool.Put(c.buf)
	c.buf = nil
	c.docs, c.tfs = nil, nil
	c.done = true
}

// loadNextBlock decodes block c.block and advances the block pointer. Sets
// done when the list is exhausted.
func (c *Cursor) loadNextBlock() {
	if c.block >= len(c.pl.Blocks) {
		c.done = true
		return
	}
	// Integrity gate: a block whose payload fails its CRC is never scored.
	if !c.pl.VerifyBlock(c.block) {
		c.failBlock(c.block)
		return
	}
	if c.OnBlock != nil {
		c.OnBlock(c.block)
	}
	c.docs, c.tfs = c.idx.DecodeBlock(c.pl, c.block, c.docs[:0], c.tfs[:0])
	c.block++
	c.pos = 0
}

// failBlock latches a corruption error and terminates iteration.
// Outlined from the block-load path (hotpath: no fmt inline).
func (c *Cursor) failBlock(b int) {
	c.err = fmt.Errorf("index: list %q block %d: checksum mismatch: %w", c.pl.Term, b, ErrCorrupt)
	c.done = true
	c.docs, c.tfs = c.docs[:0], c.tfs[:0]
	c.pos = 0
}

// Err reports the integrity failure that terminated iteration, if any.
// A cursor that ran off the end of its list returns nil.
func (c *Cursor) Err() error { return c.err }

// Valid reports whether the cursor points at a posting.
func (c *Cursor) Valid() bool { return !c.done }

// Doc returns the current docID. Only valid when Valid().
func (c *Cursor) Doc() uint32 { return c.docs[c.pos] }

// TF returns the current term frequency. Only valid when Valid().
func (c *Cursor) TF() uint32 { return c.tfs[c.pos] }

// Score returns the current posting's BM25 term score.
func (c *Cursor) Score() float64 {
	return c.idx.TermScore(c.pl, c.Doc(), c.TF())
}

// Next advances to the following posting.
//
//boss:hotpath one call per posting consumed by the software engines.
func (c *Cursor) Next() {
	if c.done {
		return
	}
	c.pos++
	if c.pos >= len(c.docs) {
		c.loadNextBlock()
	}
}

// SeekGEQ advances the cursor to the first posting with docID >= target,
// skipping whole blocks via metadata without decoding them. It reports
// whether such a posting exists.
//
//boss:hotpath the cursor-advance step of every skipping algorithm.
func (c *Cursor) SeekGEQ(target uint32) bool {
	if c.done {
		return false
	}
	// Already positioned at or past target?
	if c.docs[c.pos] >= target {
		return true
	}
	// If the target lies beyond the current block, skip via metadata.
	// c.block is the *next* block to decode; current block is c.block-1.
	if c.pl.Blocks[c.block-1].LastDoc < target {
		nb := c.findBlockGEQ(target)
		if nb < 0 {
			c.done = true
			return false
		}
		c.block = nb
		c.loadNextBlock()
		if c.done {
			return false
		}
	}
	// Scan within the block.
	for c.pos < len(c.docs) && c.docs[c.pos] < target {
		c.pos++
	}
	if c.pos >= len(c.docs) {
		// Target beyond this block's decoded span but within LastDoc range
		// cannot happen; move on defensively.
		c.loadNextBlock()
		if c.done {
			return false
		}
		return c.SeekGEQ(target)
	}
	return true
}

// findBlockGEQ returns the index of the first block whose LastDoc >= target,
// searching from the current position, or -1 if none.
func (c *Cursor) findBlockGEQ(target uint32) int {
	lo, hi := c.block, len(c.pl.Blocks)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.pl.Blocks[mid].LastDoc < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(c.pl.Blocks) {
		return -1
	}
	return lo
}
