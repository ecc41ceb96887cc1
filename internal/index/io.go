package index

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"boss/internal/compress"
	"boss/internal/score"
)

// Binary index format (version 2):
//
//	magic "BOSSIDX2"
//	numDocs u32 | avgDocLen f64 | k1 f64 | b f64 | numLists u32
//	per list:
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
// costs no more than the stream holds: Read allocates at most maxPrealloc
// bytes ahead of those it has read (readN).
const (
	maxLists     = 1 << 26
	maxBlocks    = 1 << 26
	maxDataBytes = 1 << 30
	maxDocs      = 1 << 30
	maxPrealloc  = 1 << 20

	blockWireBytes = 4 + 4 + 4 + 4 + 4 + 2 + 4 // first, last, maxScore, offset, length, count, checksum
)

// ErrCorrupt reports a structurally invalid, truncated, or
// checksum-mismatched index file. All load failures wrap it, so callers
// test with errors.Is(err, index.ErrCorrupt).
var ErrCorrupt = errors.New("index: corrupt or truncated index file")

// WriteTo serializes the index. It implements io.WriterTo.
func (idx *Index) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	write := func(v interface{}) {
		if cw.err == nil {
			cw.err = binary.Write(cw, binary.LittleEndian, v)
		}
	}
	cw.WriteString(indexMagic)
	write(uint32(idx.NumDocs))
	write(idx.AvgDocLen)
	write(idx.Params.K1)
	write(idx.Params.B)
	write(uint32(len(idx.Lists)))
	for _, term := range idx.Terms() {
		pl := idx.Lists[term]
		write(uint16(len(term)))
		cw.WriteString(term)
		write(uint8(pl.Scheme))
		write(uint32(pl.DF))
		write(pl.IDF)
		write(pl.MaxScore)
		write(pl.BaseAddr)
		write(uint32(len(pl.Blocks)))
		for _, b := range pl.Blocks {
			write(b.FirstDoc)
			write(b.LastDoc)
			write(float32(b.MaxScore))
			write(b.Offset)
			write(b.Length)
			write(b.Count)
			write(b.Checksum)
		}
		write(uint32(len(pl.Data)))
		_, _ = cw.Write(pl.Data) // countingWriter latches the first error in cw.err
	}
	write(idx.NormBaseAddr)
	for _, n := range idx.DocNorms {
		write(float32(n))
	}
	// Impact section: emitted only when some list carries impacts, so
	// impact-free indexes serialize byte-identically to pre-impact v2.
	hasImpacts := false
	for _, pl := range idx.Lists {
		if pl.HasImpacts() {
			hasImpacts = true
			break
		}
	}
	if hasImpacts {
		cw.WriteString(impactMagic)
		for _, term := range idx.Terms() {
			pl := idx.Lists[term]
			write(int32(pl.ImpactStep))
			write(pl.MaxImpact)
			for _, b := range pl.Blocks {
				write(b.MaxImpact)
			}
		}
	}
	// Footer: seal everything written so far under a stream CRC. The
	// footer magic itself is covered by nothing (it is the seal).
	sum := cw.crc
	cw.WriteString(footerMagic)
	write(sum)
	if cw.err == nil {
		cw.err = cw.w.(*bufio.Writer).Flush()
	}
	return cw.n, cw.err
}

// Read deserializes an index written by WriteTo. Any truncation, bad
// length field, or checksum mismatch yields an error wrapping
// ErrCorrupt.
func Read(r io.Reader) (*Index, error) {
	cr := &crcReader{r: bufio.NewReader(r)}
	magic := make([]byte, len(indexMagic))
	if _, err := io.ReadFull(cr, magic); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %w", ErrCorrupt, err)
	}
	if string(magic) != indexMagic {
		return nil, fmt.Errorf("%w: bad magic %q (want %q)", ErrCorrupt, magic, indexMagic)
	}
	var err error
	read := func(v interface{}) {
		if err == nil {
			err = binary.Read(cr, binary.LittleEndian, v)
		}
	}
	idx := &Index{Lists: make(map[string]*PostingList)}
	var numDocs, numLists uint32
	read(&numDocs)
	read(&idx.AvgDocLen)
	read(&idx.Params.K1)
	read(&idx.Params.B)
	read(&numLists)
	if err != nil {
		return nil, fmt.Errorf("%w: reading header: %w", ErrCorrupt, err)
	}
	if numDocs > maxDocs || numLists > maxLists {
		return nil, fmt.Errorf("%w: implausible header (docs=%d lists=%d)", ErrCorrupt, numDocs, numLists)
	}
	idx.NumDocs = int(numDocs)
	for i := uint32(0); i < numLists; i++ {
		var termLen uint16
		read(&termLen)
		if err != nil {
			return nil, fmt.Errorf("%w: list %d: %w", ErrCorrupt, i, err)
		}
		termBytes := make([]byte, termLen)
		if _, err = io.ReadFull(cr, termBytes); err != nil {
			return nil, fmt.Errorf("%w: list %d term: %w", ErrCorrupt, i, err)
		}
		pl := &PostingList{Term: string(termBytes)}
		pl.id.Store(nextListID.Add(1))
		var scheme uint8
		var df, numBlocks, dataLen uint32
		read(&scheme)
		read(&df)
		read(&pl.IDF)
		read(&pl.MaxScore)
		read(&pl.BaseAddr)
		read(&numBlocks)
		if err != nil {
			return nil, fmt.Errorf("%w: list %q header: %w", ErrCorrupt, pl.Term, err)
		}
		if numBlocks > maxBlocks {
			return nil, fmt.Errorf("%w: list %q: implausible block count %d", ErrCorrupt, pl.Term, numBlocks)
		}
		if compress.Scheme(scheme) >= compress.NumSchemes {
			return nil, fmt.Errorf("%w: list %q: unknown scheme %d", ErrCorrupt, pl.Term, scheme)
		}
		pl.Scheme = compress.Scheme(scheme)
		pl.codec = compress.ForScheme(pl.Scheme)
		pl.DF = int(df)
		var raw []byte
		if raw, err = readN(cr, int(numBlocks)*blockWireBytes); err != nil {
			return nil, fmt.Errorf("%w: list %q blocks: %w", ErrCorrupt, pl.Term, err)
		}
		pl.Blocks = make([]BlockMeta, numBlocks)
		for bi := range pl.Blocks {
			w := raw[bi*blockWireBytes:]
			pl.Blocks[bi] = BlockMeta{
				FirstDoc: binary.LittleEndian.Uint32(w),
				LastDoc:  binary.LittleEndian.Uint32(w[4:]),
				MaxScore: float64(math.Float32frombits(binary.LittleEndian.Uint32(w[8:]))),
				Offset:   binary.LittleEndian.Uint32(w[12:]),
				Length:   binary.LittleEndian.Uint32(w[16:]),
				Count:    binary.LittleEndian.Uint16(w[20:]),
				Checksum: binary.LittleEndian.Uint32(w[22:]),
			}
		}
		read(&dataLen)
		if err != nil {
			return nil, fmt.Errorf("%w: list %q blocks: %w", ErrCorrupt, pl.Term, err)
		}
		if dataLen > maxDataBytes {
			return nil, fmt.Errorf("%w: list %q: implausible data length %d", ErrCorrupt, pl.Term, dataLen)
		}
		if pl.Data, err = readN(cr, int(dataLen)); err != nil {
			return nil, fmt.Errorf("%w: list %q data: %w", ErrCorrupt, pl.Term, err)
		}
		for bi := range pl.Blocks {
			b := &pl.Blocks[bi]
			if uint64(b.Offset)+uint64(b.Length) > uint64(dataLen) {
				return nil, fmt.Errorf("%w: list %q block %d exceeds payload", ErrCorrupt, pl.Term, bi)
			}
		}
		idx.Lists[pl.Term] = pl
	}
	read(&idx.NormBaseAddr)
	var norms []byte
	if err == nil {
		norms, err = readN(cr, 4*idx.NumDocs) // float32 each
	}
	if err != nil {
		return nil, fmt.Errorf("%w: reading norms: %w", ErrCorrupt, err)
	}
	idx.DocNorms = make([]float64, idx.NumDocs)
	for d := range idx.DocNorms {
		idx.DocNorms[d] = float64(math.Float32frombits(binary.LittleEndian.Uint32(norms[4*d:])))
	}
	// Section sniff: the eight bytes after the norms are either the
	// optional impact section's magic or the footer's. Anything else is
	// named explicitly so a file expected to carry impacts fails with an
	// error distinguishable from an ordinary footer mismatch.
	sum := cr.crc
	sect := make([]byte, len(footerMagic))
	if _, err := io.ReadFull(cr, sect); err != nil {
		return nil, fmt.Errorf("%w: reading impact-section/footer magic: %w", ErrCorrupt, err)
	}
	if string(sect) == impactMagic {
		for _, term := range idx.Terms() {
			pl := idx.Lists[term]
			var step int32
			read(&step)
			read(&pl.MaxImpact)
			if err != nil {
				return nil, fmt.Errorf("%w: impact section: list %q header: %w", ErrCorrupt, term, err)
			}
			pl.ImpactStep = score.Fixed(step)
			for bi := range pl.Blocks {
				read(&pl.Blocks[bi].MaxImpact)
			}
			if err != nil {
				return nil, fmt.Errorf("%w: impact section: list %q block maxima: %w", ErrCorrupt, term, err)
			}
		}
		// The seal covers the impact section; the footer must follow.
		sum = cr.crc
		if _, err := io.ReadFull(cr, sect); err != nil {
			return nil, fmt.Errorf("%w: reading footer after impact section: %w", ErrCorrupt, err)
		}
	}
	if string(sect) != footerMagic {
		return nil, fmt.Errorf("%w: bad magic %q after norms: want impact section %q or footer %q (impact section missing or corrupt?)", ErrCorrupt, sect, impactMagic, footerMagic)
	}
	var sealed uint32
	if err := binary.Read(cr, binary.LittleEndian, &sealed); err != nil {
		return nil, fmt.Errorf("%w: reading footer checksum: %w", ErrCorrupt, err)
	}
	if sealed != sum {
		return nil, fmt.Errorf("%w: checksum mismatch (file %08x, computed %08x)", ErrCorrupt, sealed, sum)
	}
	idx.TotalBytes = idx.NormBaseAddr + uint64(idx.NumDocs*DocNormBytes)
	return idx, nil
}

// readN reads exactly n bytes, allocating at most maxPrealloc of them
// before they have arrived.
func readN(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, maxPrealloc))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n, 2*len(buf))-len(buf))
		}
		m, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+m]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// countingWriter tracks bytes written, the running stream CRC, and the
// first error.
type countingWriter struct {
	w   io.Writer
	n   int64
	crc uint32
	err error
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	if cw.err != nil {
		return 0, cw.err
	}
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	cw.crc = crc32.Update(cw.crc, castagnoli, p[:n])
	cw.err = err
	return n, err
}

func (cw *countingWriter) WriteString(s string) {
	_, _ = cw.Write([]byte(s)) // error latched in cw.err
}

// crcReader accumulates the CRC32-C of everything read through it.
type crcReader struct {
	r   io.Reader
	crc uint32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc = crc32.Update(cr.crc, castagnoli, p[:n])
	return n, err
}
