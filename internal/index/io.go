package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"boss/internal/compress"
	"boss/internal/score"
	"boss/internal/wire"
)

// Binary index format (version 3):
//
//	magic "BOSSIDX3"
//	numDocs u32 | avgDocLen f64 | k1 f64 | b f64 | flags u32 | numLists u32
//	per list, in strictly increasing term order:
//	  termLen u16 | term bytes | scheme u8 | df u32 | idf f64 |
//	  maxScore f64 | [step i32 | maxImpact u8] | numBlocks u32 |
//	  per block: first u32 | last u32 | maxScore f64 | offset u32 |
//	             length u32 | count u16 | checksum u32 | [maxImpact u8]
//	  dataLen u32 | data bytes
//	docNorms: numDocs × f64
//	footer: magic "BOSSEND2" | crc u32 (CRC32-C of every preceding byte)
//
// The bracketed fields are present when flags has flagImpacts set, which
// WriteTo does when some list carries impacts; any other flag bit is
// corrupt. The per-posting impact codes travel inside each block payload
// (covered by Length and the block CRC). Scores and norms are stored at
// full width, so Read gives back the index WriteTo wrote, bit for bit.
//
// The footer CRC turns every truncation or bit-flip anywhere in the file
// into a typed ErrCorrupt at load time instead of undefined behaviour at
// query time; per-block checksums additionally catch media corruption at
// fetch time after a clean load. Behind the seal, Read also refuses block
// metadata no build writes (checkBlocks), so that a resealed file cannot
// point a block's docIDs past the norms.
const (
	indexMagic  = "BOSSIDX3"
	footerMagic = "BOSSEND2"

	flagImpacts = 1 << 0
)

// Structural sanity bounds: a corrupt length field must produce
// ErrCorrupt, not a multi-gigabyte allocation. One that passes them still
// costs no more than the stream holds: Read allocates at most
// wire.MaxPrealloc bytes ahead of those it has read (wire.Grow).
const (
	maxLists     = 1 << 26
	maxBlocks    = 1 << 26
	maxDataBytes = 1 << 30
	maxDocs      = 1 << 30

	headerWireBytes = 4 + 8 + 8 + 8 + 4 + 4     // numDocs, avgDocLen, k1, b, flags, numLists
	listWireBytes   = 2 + 1 + 4 + 8 + 8 + 4 + 4 // termLen, scheme, df, idf, maxScore, numBlocks, dataLen
	blockWireBytes  = 4 + 4 + 8 + 4 + 4 + 2 + 4 // first, last, maxScore, offset, length, count, checksum
	impactWireBytes = 4 + 1                     // a list's step and maxImpact; a block adds its maxImpact

	// Read lays lists and block metadata out in chunks of these sizes; a
	// list with more than an eighth of a block chunk gets its own.
	listChunk, blockChunk = 1024, 2048
)

// ErrCorrupt reports a structurally invalid, truncated, or
// checksum-mismatched index file. All load failures wrap it, so callers
// test with errors.Is(err, index.ErrCorrupt).
var ErrCorrupt = errors.New("index: corrupt or truncated index file")

// corruptf wraps ErrCorrupt with context.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// WriteTo serializes the index in one write. It implements io.WriterTo.
func (idx *Index) WriteTo(w io.Writer) (int64, error) {
	type entry struct {
		term string
		pl   *PostingList
	}
	lists := make([]entry, 0, len(idx.Lists))
	var flags uint32
	size, blocks := len(indexMagic)+headerWireBytes+8*len(idx.DocNorms)+wire.FooterBytes, 0
	for term, pl := range idx.Lists {
		lists = append(lists, entry{term, pl})
		size += listWireBytes + len(term) + blockWireBytes*len(pl.Blocks) + len(pl.Data)
		blocks += len(pl.Blocks)
		if pl.HasImpacts() {
			flags = flagImpacts
		}
	}
	impacts := flags&flagImpacts != 0
	if impacts {
		size += impactWireBytes*len(lists) + blocks
	}
	slices.SortFunc(lists, func(a, b entry) int { return strings.Compare(a.term, b.term) })

	le := binary.LittleEndian
	buf := make([]byte, 0, size)
	buf = append(buf, indexMagic...)
	buf = le.AppendUint32(buf, uint32(idx.NumDocs))
	buf = le.AppendUint64(buf, math.Float64bits(idx.AvgDocLen))
	buf = le.AppendUint64(buf, math.Float64bits(idx.Params.K1))
	buf = le.AppendUint64(buf, math.Float64bits(idx.Params.B))
	buf = le.AppendUint32(buf, flags)
	buf = le.AppendUint32(buf, uint32(len(lists)))
	for _, e := range lists {
		pl := e.pl
		buf = le.AppendUint16(buf, uint16(len(e.term)))
		buf = append(buf, e.term...)
		buf = append(buf, uint8(pl.Scheme))
		buf = le.AppendUint32(buf, uint32(pl.DF))
		buf = le.AppendUint64(buf, math.Float64bits(pl.IDF))
		buf = le.AppendUint64(buf, math.Float64bits(pl.MaxScore))
		if impacts {
			buf = append(le.AppendUint32(buf, uint32(pl.ImpactStep)), pl.MaxImpact)
		}
		buf = le.AppendUint32(buf, uint32(len(pl.Blocks)))
		for i := range pl.Blocks {
			b := &pl.Blocks[i]
			buf = le.AppendUint32(buf, b.FirstDoc)
			buf = le.AppendUint32(buf, b.LastDoc)
			buf = le.AppendUint64(buf, math.Float64bits(b.MaxScore))
			buf = le.AppendUint32(buf, b.Offset)
			buf = le.AppendUint32(buf, b.Length)
			buf = le.AppendUint16(buf, b.Count)
			buf = le.AppendUint32(buf, b.Checksum)
			if impacts {
				buf = append(buf, b.MaxImpact)
			}
		}
		buf = le.AppendUint32(buf, uint32(len(pl.Data)))
		buf = append(buf, pl.Data...)
	}
	for _, n := range idx.DocNorms {
		buf = le.AppendUint64(buf, math.Float64bits(n))
	}
	return wire.Seal(w, buf, footerMagic)
}

// Read deserializes an index written by WriteTo. Any truncation, bad
// length field, unknown flag, out-of-order term, impossible block or
// checksum mismatch yields an error wrapping ErrCorrupt. It lays the lists
// out in slabs, as BuildRange does.
func Read(r io.Reader) (*Index, error) {
	d := wire.NewDecoder(r)
	if err := d.Magic(indexMagic); err != nil {
		return nil, corruptf("%w", err)
	}
	// Here and below, records decode in file order: Go evaluates the calls
	// in a composite literal left to right.
	numDocs := d.U32()
	idx := &Index{NumDocs: int(numDocs), AvgDocLen: d.F64(), Params: score.Params{K1: d.F64(), B: d.F64()}}
	flags, numLists := d.U32(), d.U32()
	if err := d.Err(); err != nil {
		return nil, corruptf("reading header: %w", err)
	}
	if numDocs > maxDocs || numLists > maxLists {
		return nil, corruptf("implausible header (docs=%d lists=%d)", numDocs, numLists)
	}
	if flags&^flagImpacts != 0 {
		return nil, corruptf("unknown flags %#x", flags)
	}
	impacts := flags&flagImpacts != 0
	var (
		lists  []*PostingList // in file order
		pls    slab[PostingList]
		blocks slab[BlockMeta]
		arena  slab[byte]
	)
	for i := range int(numLists) {
		if len(lists) == cap(lists) {
			lists = wire.Grow(lists, int(numLists))
		}
		pl := &pls.take(1, listChunk)[0]
		lists = append(lists, pl)
		term := string(d.Next(int(d.U16()))) // before the next call reuses the buffer
		*pl = PostingList{Term: term, Scheme: compress.Scheme(d.U8()), DF: int(d.U32()),
			IDF: d.F64(), MaxScore: d.F64()}
		if impacts {
			pl.ImpactStep, pl.MaxImpact = score.Fixed(int32(d.U32())), d.U8()
		}
		numBlocks := d.U32()
		switch {
		case d.Err() != nil:
			return nil, corruptf("list %d header: %w", i, d.Err())
		case i > 0 && pl.Term <= lists[i-1].Term:
			return nil, corruptf("list %d: term %q not after %q", i, pl.Term, lists[i-1].Term)
		case numBlocks > maxBlocks:
			return nil, corruptf("list %q: implausible block count %d", pl.Term, numBlocks)
		case pl.Scheme >= compress.NumSchemes:
			return nil, corruptf("list %q: unknown scheme %d", pl.Term, pl.Scheme)
		}
		pl.codec = compress.ForScheme(pl.Scheme)
		if numBlocks <= blockChunk/8 {
			pl.Blocks = blocks.take(int(numBlocks), blockChunk)[:0]
		}
		for range numBlocks {
			if len(pl.Blocks) == cap(pl.Blocks) {
				if d.Err() != nil {
					break
				}
				pl.Blocks = wire.Grow(pl.Blocks, int(numBlocks))
			}
			pl.Blocks = append(pl.Blocks, BlockMeta{
				FirstDoc: d.U32(), LastDoc: d.U32(), MaxScore: d.F64(),
				Offset: d.U32(), Length: d.U32(), Count: d.U16(), Checksum: d.U32(),
			})
			if impacts {
				pl.Blocks[len(pl.Blocks)-1].MaxImpact = d.U8()
			}
		}
		dataLen := d.U32()
		if dataLen > maxDataBytes {
			return nil, corruptf("list %q: implausible data length %d", pl.Term, dataLen)
		}
		if dataLen <= arenaChunk/8 {
			pl.Data = arena.take(int(dataLen), arenaChunk)
			d.ReadFull(pl.Data)
		} else {
			pl.Data = d.ReadN(int(dataLen))
		}
		if err := d.Err(); err != nil {
			return nil, corruptf("list %q blocks and data: %w", pl.Term, err)
		}
		if err := checkBlocks(pl, numDocs); err != nil {
			return nil, err
		}
	}
	for range numDocs {
		if len(idx.DocNorms) == cap(idx.DocNorms) {
			if d.Err() != nil {
				break
			}
			idx.DocNorms = wire.Grow(idx.DocNorms, idx.NumDocs)
		}
		idx.DocNorms = append(idx.DocNorms, d.F64())
	}
	if err := d.Err(); err != nil {
		return nil, corruptf("reading norms: %w", err)
	}
	if err := d.Footer(footerMagic); err != nil {
		return nil, corruptf("%w", err)
	}
	idx.Lists = make(map[string]*PostingList, len(lists))
	idx.TotalBytes = uint64(idx.NumDocs * DocNormBytes)
	id := nextListID.Add(uint64(len(lists))) - uint64(len(lists))
	for _, pl := range lists {
		id++
		idx.addList(pl, id)
	}
	return idx, nil
}

// checkBlocks refuses block metadata that no build writes and that
// decoding or scoring would trust: a payload span past the list's data, an
// empty block, docIDs out of order, past the norms or too few for the
// block's count, counts that do not sum to the list's DF, and, on an
// impact list, a payload shorter than its impact tail.
func checkBlocks(pl *PostingList, numDocs uint32) error {
	var postings uint64
	for bi := range pl.Blocks {
		b := &pl.Blocks[bi]
		var bad string
		switch {
		case uint64(b.Offset)+uint64(b.Length) > uint64(len(pl.Data)):
			bad = "exceeds payload"
		case b.Count == 0:
			bad = "is empty"
		case b.FirstDoc > b.LastDoc || b.LastDoc >= numDocs:
			bad = "has docIDs out of order or past the norms"
		case b.LastDoc-b.FirstDoc < uint32(b.Count)-1:
			bad = "holds more postings than docIDs"
		case bi > 0 && b.FirstDoc <= pl.Blocks[bi-1].LastDoc:
			bad = "does not start after the previous block"
		case pl.HasImpacts() && b.Length < uint32(b.Count):
			bad = "is shorter than its impact codes"
		default:
			postings += uint64(b.Count)
			continue
		}
		return corruptf("list %q block %d (%d postings, docIDs [%d, %d] of %d, %d bytes) %s",
			pl.Term, bi, b.Count, b.FirstDoc, b.LastDoc, numDocs, b.Length, bad)
	}
	if postings != uint64(pl.DF) {
		return corruptf("list %q: blocks hold %d postings, df %d", pl.Term, postings, pl.DF)
	}
	return nil
}
