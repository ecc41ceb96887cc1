package docstore

import (
	"encoding/binary"
	"io"

	"boss/internal/wire"
)

// Binary document-store format (version 1):
//
//	magic "BOSSDOC1"
//	numDocs u32 | numFields u16
//	per field: nameLen u16 | name bytes
//	numBlocks u32
//	per block: firstDoc u32 | count u32 | offset u32 | compLen u32 |
//	           rawLen u32 | checksum u32
//	dataLen u32 | data bytes
//	footer: magic "BOSSDEND" | crc u32 (CRC32-C of every preceding byte)
//
// The footer CRC turns every truncation or bit-flip anywhere in the file
// into a typed ErrCorrupt at load time; the per-block payload checksums
// additionally catch media corruption at fetch time after a clean load —
// the same two-tier integrity scheme as the v2 index format.
const (
	docMagic  = "BOSSDOC1"
	docFooter = "BOSSDEND"
)

// Structural sanity bounds: a corrupt length field must produce
// ErrCorrupt, not a multi-gigabyte allocation. One that passes them still
// costs no more than the stream holds (wire.Grow).
const (
	maxDocs      = 1 << 30
	maxBlocks    = 1 << 26
	maxDataBytes = 1 << 30
	maxFields    = 1 << 8
	maxFieldName = 1 << 10
)

// WriteTo serializes the store in one write. It implements io.WriterTo.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	size := len(docMagic) + 4 + 2 + 4 + 6*4*len(s.Blocks) + 4 + len(s.Data) + wire.FooterBytes
	for _, f := range s.Fields {
		size += 2 + len(f)
	}
	le := binary.LittleEndian
	buf := make([]byte, 0, size)
	buf = append(buf, docMagic...)
	buf = le.AppendUint32(buf, uint32(s.NumDocs))
	buf = le.AppendUint16(buf, uint16(len(s.Fields)))
	for _, f := range s.Fields {
		buf = le.AppendUint16(buf, uint16(len(f)))
		buf = append(buf, f...)
	}
	buf = le.AppendUint32(buf, uint32(len(s.Blocks)))
	for _, b := range s.Blocks {
		buf = le.AppendUint32(buf, b.FirstDoc)
		buf = le.AppendUint32(buf, b.Count)
		buf = le.AppendUint32(buf, b.Offset)
		buf = le.AppendUint32(buf, b.CompLen)
		buf = le.AppendUint32(buf, b.RawLen)
		buf = le.AppendUint32(buf, b.Checksum)
	}
	buf = le.AppendUint32(buf, uint32(len(s.Data)))
	buf = append(buf, s.Data...)
	return wire.Seal(w, buf, docFooter)
}

// Read deserializes a store written by WriteTo. Any truncation, bad
// length field, or checksum mismatch yields an error wrapping
// ErrCorrupt.
func Read(r io.Reader) (*Store, error) {
	d := wire.NewDecoder(r)
	if err := d.Magic(docMagic); err != nil {
		return nil, corruptf("%w", err)
	}
	s := &Store{}
	numDocs := d.U32()
	numFields := d.U16()
	if err := d.Err(); err != nil {
		return nil, corruptf("reading header: %w", err)
	}
	if numDocs > maxDocs || int(numFields) > maxFields || numFields == 0 {
		return nil, corruptf("implausible header (docs=%d fields=%d)", numDocs, numFields)
	}
	s.NumDocs = int(numDocs)
	s.Fields = make([]string, numFields)
	for i := range s.Fields {
		nameLen := d.U16()
		if int(nameLen) > maxFieldName {
			return nil, corruptf("field %d: implausible name length %d", i, nameLen)
		}
		s.Fields[i] = string(d.Next(int(nameLen)))
	}
	numBlocks := d.U32()
	if numBlocks > maxBlocks {
		return nil, corruptf("implausible block count %d", numBlocks)
	}
	for range numBlocks {
		if len(s.Blocks) == cap(s.Blocks) {
			if d.Err() != nil {
				break
			}
			s.Blocks = wire.Grow(s.Blocks, int(numBlocks))
		}
		// The fields in file order: Go evaluates the calls left to right.
		s.Blocks = append(s.Blocks, BlockMeta{
			FirstDoc: d.U32(), Count: d.U32(), Offset: d.U32(),
			CompLen: d.U32(), RawLen: d.U32(), Checksum: d.U32(),
		})
	}
	dataLen := d.U32()
	if dataLen > maxDataBytes {
		return nil, corruptf("implausible data length %d", dataLen)
	}
	if s.Data = d.ReadN(int(dataLen)); d.Err() != nil {
		return nil, corruptf("reading fields, blocks and data: %w", d.Err())
	}
	var docs uint64
	for bi := range s.Blocks {
		b := &s.Blocks[bi]
		if uint64(b.Offset)+uint64(b.CompLen) > uint64(dataLen) {
			return nil, corruptf("block %d exceeds payload", bi)
		}
		if b.Count == 0 || b.Count > BlockDocs || b.RawLen > maxDataBytes {
			return nil, corruptf("block %d implausible (count=%d raw=%d)", bi, b.Count, b.RawLen)
		}
		if uint64(b.FirstDoc) != uint64(bi)*BlockDocs {
			return nil, corruptf("block %d firstDoc %d (want %d)", bi, b.FirstDoc, bi*BlockDocs)
		}
		docs += uint64(b.Count)
		s.RawBytes += int64(b.RawLen)
	}
	if docs != uint64(numDocs) {
		return nil, corruptf("block doc counts sum to %d, header says %d", docs, numDocs)
	}
	if err := d.Footer(docFooter); err != nil {
		return nil, corruptf("footer: %w", err)
	}
	return s, nil
}
