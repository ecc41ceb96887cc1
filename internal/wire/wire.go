// Package wire is the codec of the index and document store files:
// little-endian streams sealed by a footer, an eight-byte magic and the
// CRC32-C of every byte before it. A writer appends its fields to one buffer
// with encoding/binary's Append functions and hands it to Seal; a reader
// decodes them straight out of a Decoder's buffer, summing the CRC per refill.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"unsafe"
)

const (
	// FooterBytes is the size of the footer Seal appends.
	FooterBytes = 8 + 4
	// MaxPrealloc bounds, in bytes, what Grow allocates for a length
	// field before the elements it counts have arrived.
	MaxPrealloc = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Seal appends the footer to buf, magic then the CRC32-C of buf, and writes
// buf to w in one call.
func Seal(w io.Writer, buf []byte, magic string) (int64, error) {
	sum := crc32.Checksum(buf, castagnoli)
	n, err := w.Write(binary.LittleEndian.AppendUint32(append(buf, magic...), sum))
	return int64(n), err
}

// Decoder reads a sealed file. It latches the first error, after which its
// methods return zeros. It waits on its reader only for the bytes the
// record being decoded still lacks, so a bad stream fails at the first
// record it spoils.
type Decoder struct {
	r        io.Reader
	buf      []byte
	pos, end int // the unread bytes are buf[pos:end]
	summed   int // buf[:summed] is in crc
	crc      uint32
	err      error
}

// NewDecoder returns a Decoder reading r through a 64 KiB buffer.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r, buf: make([]byte, 64<<10)} }

// Err returns the first read error: io.ErrUnexpectedEOF if the stream ended.
func (d *Decoder) Err() error { return d.err }

// Sum returns the CRC32-C of every byte consumed so far.
func (d *Decoder) Sum() uint32 {
	d.crc = crc32.Update(d.crc, castagnoli, d.buf[d.summed:d.pos])
	d.summed = d.pos
	return d.crc
}

// fill makes the buffer hold at least n unread bytes.
func (d *Decoder) fill(n int) bool {
	if d.err != nil {
		return false
	}
	d.Sum()
	d.end = copy(d.buf, d.buf[d.pos:d.end])
	d.pos, d.summed = 0, 0
	m, err := io.ReadAtLeast(d.r, d.buf[d.end:], n-d.end)
	d.end += m
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	d.err = err
	return err == nil
}

// Next consumes the next n bytes, at most 64 KiB, and returns them, valid
// until the next call; zeros after an error.
func (d *Decoder) Next(n int) []byte {
	if d.end-d.pos < n && !d.fill(n) {
		clear(d.buf[:n])
		return d.buf[:n]
	}
	d.pos += n
	return d.buf[d.pos-n : d.pos]
}

// U8 to U64 consume an unsigned integer, F64 a float.
func (d *Decoder) U8() uint8    { return d.Next(1)[0] }
func (d *Decoder) U16() uint16  { return binary.LittleEndian.Uint16(d.Next(2)) }
func (d *Decoder) U32() uint32  { return binary.LittleEndian.Uint32(d.Next(4)) }
func (d *Decoder) U64() uint64  { return binary.LittleEndian.Uint64(d.Next(8)) }
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// ReadFull fills p from the stream.
func (d *Decoder) ReadFull(p []byte) {
	for len(p) > 0 && (d.pos < d.end || d.fill(1)) {
		n := copy(p, d.buf[d.pos:d.end])
		d.pos += n
		p = p[n:]
	}
}

// ReadN consumes n bytes into a slice allocated as Grow does.
func (d *Decoder) ReadN(n int) []byte {
	var p []byte
	for len(p) < n && d.err == nil {
		p = Grow(p, n)
		d.ReadFull(p[len(p):min(n, cap(p))])
		p = p[:min(n, cap(p))]
	}
	return p
}

// Magic consumes len(magic) bytes, which must be magic.
func (d *Decoder) Magic(magic string) error {
	if p := d.Next(len(magic)); d.err != nil {
		return fmt.Errorf("reading magic %q: %w", magic, d.err)
	} else if string(p) != magic {
		return fmt.Errorf("bad magic %q (want %q)", p, magic)
	}
	return nil
}

// Footer consumes the footer Seal wrote, which must seal every byte
// consumed before it.
func (d *Decoder) Footer(magic string) error {
	sum := d.Sum()
	if err := d.Magic(magic); err != nil {
		return err
	}
	if sealed := d.U32(); d.err != nil {
		return fmt.Errorf("reading footer checksum: %w", d.err)
	} else if sealed != sum {
		return fmt.Errorf("checksum mismatch (file %08x, computed %08x)", sealed, sum)
	}
	return nil
}

// Grow returns the full slice s with room for more of the n elements a
// length field announced, so that a corrupt one costs at most MaxPrealloc
// bytes ahead of the elements that have arrived: the first call allocates
// that much, each later one doubles the capacity, to at most n.
func Grow[E any](s []E, n int) []E {
	if cap(s) == 0 {
		var e E
		return make([]E, 0, min(n, max(1, MaxPrealloc/int(unsafe.Sizeof(e)))))
	}
	return slices.Grow(s, min(n, 2*cap(s))-len(s))
}
