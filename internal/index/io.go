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

// Binary index format (version 2):
//
//	magic "BOSSIDX2"
//	numDocs u32 | avgDocLen f64 | k1 f64 | b f64 | numLists u32
//	per list, in strictly increasing term order:
//	  termLen u16 | term bytes | scheme u8 | df u32 | idf f64 |
//	  maxScore f64 | baseAddr u64 | numBlocks u32 |
//	  per block: first u32 | last u32 | maxScore f32 | offset u32 |
//	             length u32 | count u16 | checksum u32
//	  dataLen u32 | data bytes
//	normBaseAddr u64
//	docNorms: numDocs × f32
//	impact section (optional, impact-enabled indexes only):
//	  magic "BOSSIMP1"
//	  per list (term order): step i32 | listMaxImpact u8 |
//	                         per block: maxImpact u8
//	footer: magic "BOSSEND2" | crc u32 (CRC32-C of every preceding byte)
//
// The impact section sits between the norms and the footer, announced by
// its own magic: readers sniff the eight bytes after the norms and accept
// either the impact magic or the footer, so pre-impact v2 files still
// load. The per-posting impact codes themselves travel inside each block
// payload (covered by Length and the block CRC), so the section carries
// only the per-list step and the per-block/per-list maxima.
//
// The footer CRC turns every truncation or bit-flip anywhere in the file
// into a typed ErrCorrupt at load time instead of undefined behaviour at
// query time; per-block checksums additionally catch media corruption at
// fetch time after a clean load.
const (
	indexMagic  = "BOSSIDX2"
	impactMagic = "BOSSIMP1"
	footerMagic = "BOSSEND2"
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

	listWireBytes  = 2 + 1 + 4 + 8 + 8 + 8 + 4 + 4 // termLen, scheme, df, idf, maxScore, baseAddr, numBlocks, dataLen
	blockWireBytes = 4 + 4 + 4 + 4 + 4 + 2 + 4     // first, last, maxScore, offset, length, count, checksum

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
	// The magic, the header, the norms and their address, the footer and the
	// impact section's magic; the lists add theirs, impact maxima included.
	size := len(indexMagic) + 32 + 8 + 4*len(idx.DocNorms) + wire.FooterBytes + len(impactMagic)
	hasImpacts := false
	for term, pl := range idx.Lists {
		lists = append(lists, entry{term, pl})
		size += listWireBytes + len(term) + (blockWireBytes+1)*len(pl.Blocks) + len(pl.Data) + 5
		hasImpacts = hasImpacts || pl.HasImpacts()
	}
	slices.SortFunc(lists, func(a, b entry) int { return strings.Compare(a.term, b.term) })

	le := binary.LittleEndian
	buf := make([]byte, 0, size)
	buf = append(buf, indexMagic...)
	buf = le.AppendUint32(buf, uint32(idx.NumDocs))
	buf = le.AppendUint64(buf, math.Float64bits(idx.AvgDocLen))
	buf = le.AppendUint64(buf, math.Float64bits(idx.Params.K1))
	buf = le.AppendUint64(buf, math.Float64bits(idx.Params.B))
	buf = le.AppendUint32(buf, uint32(len(lists)))
	for _, e := range lists {
		pl := e.pl
		buf = le.AppendUint16(buf, uint16(len(e.term)))
		buf = append(buf, e.term...)
		buf = append(buf, uint8(pl.Scheme))
		buf = le.AppendUint32(buf, uint32(pl.DF))
		buf = le.AppendUint64(buf, math.Float64bits(pl.IDF))
		buf = le.AppendUint64(buf, math.Float64bits(pl.MaxScore))
		buf = le.AppendUint64(buf, pl.BaseAddr)
		buf = le.AppendUint32(buf, uint32(len(pl.Blocks)))
		for i := range pl.Blocks {
			b := &pl.Blocks[i]
			buf = le.AppendUint32(buf, b.FirstDoc)
			buf = le.AppendUint32(buf, b.LastDoc)
			buf = le.AppendUint32(buf, math.Float32bits(float32(b.MaxScore)))
			buf = le.AppendUint32(buf, b.Offset)
			buf = le.AppendUint32(buf, b.Length)
			buf = le.AppendUint16(buf, b.Count)
			buf = le.AppendUint32(buf, b.Checksum)
		}
		buf = le.AppendUint32(buf, uint32(len(pl.Data)))
		buf = append(buf, pl.Data...)
	}
	buf = le.AppendUint64(buf, idx.NormBaseAddr)
	for _, n := range idx.DocNorms {
		buf = le.AppendUint32(buf, math.Float32bits(float32(n)))
	}
	// Impact section: emitted only when some list carries impacts, so
	// impact-free indexes serialize byte-identically to pre-impact v2.
	if hasImpacts {
		buf = append(buf, impactMagic...)
		for _, e := range lists {
			buf = le.AppendUint32(buf, uint32(e.pl.ImpactStep))
			buf = append(buf, e.pl.MaxImpact)
			for i := range e.pl.Blocks {
				buf = append(buf, e.pl.Blocks[i].MaxImpact)
			}
		}
	}
	return wire.Seal(w, buf, footerMagic)
}

// Read deserializes an index written by WriteTo. Any truncation, bad
// length field, out-of-order term or checksum mismatch yields an error
// wrapping ErrCorrupt. It lays the lists out in slabs, as BuildRange does,
// and reads the impact section, which is in term order, in file order.
func Read(r io.Reader) (*Index, error) {
	d := wire.NewDecoder(r)
	if err := d.Magic(indexMagic); err != nil {
		return nil, corruptf("%w", err)
	}
	// Here and below, records decode in file order: Go evaluates the calls
	// in a composite literal left to right.
	numDocs := d.U32()
	idx := &Index{NumDocs: int(numDocs), AvgDocLen: d.F64(), Params: score.Params{K1: d.F64(), B: d.F64()}}
	numLists := d.U32()
	if err := d.Err(); err != nil {
		return nil, corruptf("reading header: %w", err)
	}
	if numDocs > maxDocs || numLists > maxLists {
		return nil, corruptf("implausible header (docs=%d lists=%d)", numDocs, numLists)
	}
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
			IDF: d.F64(), MaxScore: d.F64(), BaseAddr: d.U64()}
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
				FirstDoc: d.U32(), LastDoc: d.U32(), MaxScore: d.F32(),
				Offset: d.U32(), Length: d.U32(), Count: d.U16(), Checksum: d.U32(),
			})
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
		for bi := range pl.Blocks {
			if b := &pl.Blocks[bi]; uint64(b.Offset)+uint64(b.Length) > uint64(dataLen) {
				return nil, corruptf("list %q block %d exceeds payload", pl.Term, bi)
			}
		}
	}
	idx.NormBaseAddr = d.U64()
	for range numDocs {
		if len(idx.DocNorms) == cap(idx.DocNorms) {
			if d.Err() != nil {
				break
			}
			idx.DocNorms = wire.Grow(idx.DocNorms, idx.NumDocs)
		}
		idx.DocNorms = append(idx.DocNorms, d.F32())
	}
	if err := d.Err(); err != nil {
		return nil, corruptf("reading norms: %w", err)
	}
	// The norms are followed by the optional impact section's magic or by
	// the footer; the error names both, so a file expected to carry impacts
	// fails distinguishably from an ordinary footer mismatch.
	if d.Sniff(impactMagic) {
		for _, pl := range lists {
			pl.ImpactStep = score.Fixed(int32(d.U32()))
			pl.MaxImpact = d.U8()
			for bi := range pl.Blocks {
				pl.Blocks[bi].MaxImpact = d.U8()
			}
		}
		if err := d.Err(); err != nil {
			return nil, corruptf("reading impact section: %w", err)
		}
	}
	if err := d.Footer(footerMagic); err != nil {
		return nil, corruptf("impact section %q or footer after norms: %w", impactMagic, err)
	}
	idx.Lists = make(map[string]*PostingList, len(lists))
	id := nextListID.Add(uint64(len(lists))) - uint64(len(lists))
	for _, pl := range lists {
		id++
		pl.id.Store(id)
		idx.Lists[pl.Term] = pl
	}
	idx.TotalBytes = idx.NormBaseAddr + uint64(idx.NumDocs*DocNormBytes)
	return idx, nil
}
