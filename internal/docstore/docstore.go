// Package docstore implements a block-compressed document/snippet store
// for the fetch phase of serving: after ranking ends at scored docIDs, a
// real response returns the documents themselves, and on storage-class
// memory that second phase is bandwidth-bound exactly like the first.
//
// Records are packed field-aware: documents are grouped into fixed-size
// blocks, and within a block each field is a column — a run of varint
// lengths followed by the concatenated field bytes. Columnar packing
// keeps like bytes together (names next to names, bodies next to
// bodies), which is what gives the LZ codec its ratio. Each packed block
// is compressed independently with the byte-oriented codec in lz.go and
// carries a CRC32-C of its compressed payload, so media corruption is
// detected at fetch time and surfaces as a typed ErrCorrupt — the same
// integrity discipline as the posting-block path.
//
// The store is append-build / read-only: a Builder accumulates
// documents, Build seals the store, and readers locate any document with
// O(1) block arithmetic plus an allocation-free varint scan of its
// block. Serialization (io.go) seals the whole file under a checksummed
// footer mirroring the v2 index format.
package docstore

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync/atomic"
)

// BlockDocs is the number of documents packed per block. Fixed-size
// blocks make doc→block location pure arithmetic; 64 documents is large
// enough for the columnar packing to expose redundancy to the codec and
// small enough that a single fetch decodes in microseconds.
const BlockDocs = 64

// ErrCorrupt reports a structurally invalid, truncated, or
// checksum-mismatched document store. All integrity failures wrap it, so
// callers test with errors.Is(err, docstore.ErrCorrupt).
var ErrCorrupt = errors.New("docstore: corrupt or truncated document store")

// corruptf wraps ErrCorrupt with context. Cold path only.
func corruptf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: "+format, append([]interface{}{ErrCorrupt}, args...)...)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChecksumPayload returns the CRC32-C of a compressed block payload, the
// same polynomial the index uses for posting blocks.
func ChecksumPayload(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

var errBlockFraming = corruptf("packed block framing invalid")

// BlockMeta describes one compressed block of packed documents.
type BlockMeta struct {
	FirstDoc uint32 // docID of the block's first document
	Count    uint32 // documents packed in this block
	Offset   uint32 // byte offset of the compressed payload in Data
	CompLen  uint32 // compressed payload length
	RawLen   uint32 // decompressed (packed) length
	Checksum uint32 // CRC32-C of the compressed payload
}

// Store is a sealed, read-only document store.
type Store struct {
	Fields  []string // field names, in packing order
	NumDocs int
	Blocks  []BlockMeta
	Data    []byte // concatenated compressed block payloads

	// RawBytes is the total uncompressed packed size — the numerator of
	// decode-throughput (GB/s) reporting.
	RawBytes int64

	id atomic.Uint64
}

// nextStoreID hands out process-wide store identities for cache keying,
// in the same way index.nextListID identifies posting lists.
var nextStoreID atomic.Uint64

// ID returns the store's process-wide identity, assigning it on first
// use. Together with cache.ClassDoc it keys decoded doc blocks in the
// shared block cache without colliding with posting lists.
func (s *Store) ID() uint64 {
	if id := s.id.Load(); id != 0 {
		return id
	}
	s.id.CompareAndSwap(0, nextStoreID.Add(1))
	return s.id.Load()
}

// NumBlocks returns the number of packed blocks.
func (s *Store) NumBlocks() int { return len(s.Blocks) }

// BlockOf returns the block holding docID. Blocks are fixed-size, so
// this is pure arithmetic.
func (s *Store) BlockOf(docID uint32) int { return int(docID) / BlockDocs }

// BlockPayload returns the compressed payload of block bi as a view into
// Data. Offsets were bounds-checked at build/load time.
func (s *Store) BlockPayload(bi int) []byte {
	m := &s.Blocks[bi]
	return s.Data[m.Offset : m.Offset+m.CompLen]
}

// MaxRawLen returns the largest decompressed block size — the scratch
// capacity a reader needs to decode any block of this store.
func (s *Store) MaxRawLen() int {
	max := 0
	for i := range s.Blocks {
		if n := int(s.Blocks[i].RawLen); n > max {
			max = n
		}
	}
	return max
}

// DecodeBlock decompresses the compressed payload src into dst, which
// must be exactly the block's RawLen. A corrupt payload yields an error
// wrapping ErrCorrupt; dst is never written past its length.
//
//boss:hotpath thin wrapper over the codec's decode loop.
func (s *Store) DecodeBlock(dst, src []byte) error {
	return lzDecompress(dst, src)
}

// AppendDoc appends document di's field slices (one per store field, in
// field order) to dst and returns the extended slice. raw is the decoded
// packed block holding the document and di its index within the block.
// The returned slices alias raw — zero-copy, valid as long as raw is.
// Framing violations yield ErrCorrupt, never a panic.
//
//boss:hotpath the cache-hit fetch path locates documents with this varint scan; no allocation once dst has capacity.
func (s *Store) AppendDoc(dst [][]byte, raw []byte, di int) ([][]byte, error) {
	cnt, p, ok := uvarint(raw, 0)
	if !ok || uint64(di) >= cnt || cnt > BlockDocs {
		return dst, errBlockFraming
	}
	nf := len(s.Fields)
	for f := 0; f < nf; f++ {
		var start, total, flen uint64
		for i := 0; i < int(cnt); i++ {
			l, np, ok2 := uvarint(raw, p)
			if !ok2 || l > uint64(len(raw)) {
				return dst, errBlockFraming
			}
			p = np
			if i < di {
				start += l
			} else if i == di {
				flen = l
			}
			total += l
		}
		if total > uint64(len(raw)-p) {
			return dst, errBlockFraming
		}
		fs := p + int(start)
		fe := fs + int(flen)
		dst = append(dst, raw[fs:fe:fe])
		p += int(total)
	}
	return dst, nil
}

// uvarint decodes an unsigned varint at offset p, returning the value,
// the offset past it, and whether decoding succeeded within bounds.
func uvarint(b []byte, p int) (uint64, int, bool) {
	var v uint64
	var shift uint
	for p < len(b) {
		c := b[p]
		p++
		if shift >= 64 {
			return 0, 0, false
		}
		v |= uint64(c&0x7F) << shift
		if c < 0x80 {
			return v, p, true
		}
		shift += 7
	}
	return 0, 0, false
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// Builder accumulates documents and seals them into a Store. Build-time
// code: it allocates freely.
type Builder struct {
	fields []string
	// pend holds the pending documents' field values back to back, and
	// ends[i] where value i ends in it: len(fields) values per document,
	// in field order, flushed per block.
	pend  []byte
	ends  []int
	ndocs int

	raw    []byte // packed-block scratch, reused across flushes
	blocks []BlockMeta
	data   []byte
	rawSum int64
}

// NewBuilder returns a builder for documents with the given fields.
func NewBuilder(fields ...string) *Builder {
	if len(fields) == 0 {
		panic("docstore: NewBuilder requires at least one field")
	}
	fs := make([]string, len(fields))
	copy(fs, fields)
	return &Builder{fields: fs}
}

// Add appends one document. vals must carry one value per field, in the
// order given to NewBuilder; the bytes are copied.
func (b *Builder) Add(vals ...[]byte) error {
	if len(vals) != len(b.fields) {
		return fmt.Errorf("docstore: Add got %d values for %d fields", len(vals), len(b.fields))
	}
	for _, v := range vals {
		b.pend = append(b.pend, v...)
		b.ends = append(b.ends, len(b.pend))
	}
	b.ndocs++
	if b.ndocs%BlockDocs == 0 {
		b.flush()
	}
	return nil
}

// AddStrings is Add for string-valued fields.
func (b *Builder) AddStrings(vals ...string) error {
	if len(vals) != len(b.fields) {
		return fmt.Errorf("docstore: AddStrings got %d values for %d fields", len(vals), len(b.fields))
	}
	for _, v := range vals {
		b.pend = append(b.pend, v...)
		b.ends = append(b.ends, len(b.pend))
	}
	b.ndocs++
	if b.ndocs%BlockDocs == 0 {
		b.flush()
	}
	return nil
}

// flush packs the pending documents into one block: a varint doc count,
// then per field a column of varint lengths followed by the concatenated
// bytes; the packed block is LZ-compressed and checksummed.
func (b *Builder) flush() {
	nf := len(b.fields)
	cnt := len(b.ends) / nf
	if cnt == 0 {
		return
	}
	value := func(v int) []byte {
		start := 0
		if v > 0 {
			start = b.ends[v-1]
		}
		return b.pend[start:b.ends[v]]
	}
	raw := b.raw[:0]
	raw = appendUvarint(raw, uint64(cnt))
	for f := 0; f < nf; f++ {
		for i := 0; i < cnt; i++ {
			raw = appendUvarint(raw, uint64(len(value(i*nf+f))))
		}
		for i := 0; i < cnt; i++ {
			raw = append(raw, value(i*nf+f)...)
		}
	}
	b.raw = raw[:0]
	off := len(b.data)
	b.data = lzCompress(b.data, raw)
	payload := b.data[off:]
	b.blocks = append(b.blocks, BlockMeta{
		FirstDoc: uint32(b.ndocs - cnt),
		Count:    uint32(cnt),
		Offset:   uint32(off),
		CompLen:  uint32(len(payload)),
		RawLen:   uint32(len(raw)),
		Checksum: ChecksumPayload(payload),
	})
	b.rawSum += int64(len(raw))
	b.pend, b.ends = b.pend[:0], b.ends[:0]
}

// Build flushes any partial block and seals the store.
func (b *Builder) Build() *Store {
	b.flush()
	return &Store{
		Fields:   b.fields,
		NumDocs:  b.ndocs,
		Blocks:   b.blocks,
		Data:     b.data,
		RawBytes: b.rawSum,
	}
}
