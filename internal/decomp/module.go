package decomp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"boss/internal/compress"
)

// pipelineDepth is the module's four stages; a block's last value drains
// through this many extra cycles.
const pipelineDepth = 4

// extractLanes is the number of payloads stage 1 extracts per cycle for
// field-structured schemes (Figure 6 shows multiple parallel extractor
// units). The byte-serial VariableByte accumulator cannot use the lanes:
// its stage-2 register carries a dependency from one byte to the next.
const extractLanes = 2

// exception is a stage-3 patch produced by the PFD extractor: value at
// position pos gets high OR-ed in (already shifted to its final position).
type exception struct {
	pos  int
	high uint64
}

// Module is one instance of the programmable decompression module,
// configured for a concrete scheme. It is not safe for concurrent use; each
// hardware decompression unit owns one instance.
type Module struct {
	cfg *Config

	// prog is the stage-2 netlist compiled to slot-indexed form at
	// configuration time (see compile.go). The interpreter in interp_test.go
	// is the fuzz-checked reference; the compiled program is
	// bit-identical in values, cycle counts, and errors.
	prog *program

	// kernel is decided once at configuration time (kernelFor): when the
	// compiled program is statically the identity, or is the Figure 8
	// accumulator on the byte extractor, DecodeInto skips the simulation
	// and runs the fused kernel for the configured layout. kernelNetlist
	// (the zero value) simulates every stage.
	kernel kernelKind

	// selector tables resolved at configuration time
	s16 [][]int
	s8b []compress.S8bModeInfo

	// statistics
	cycles int64
	blocks int64
	values int64

	// netlist-path decode scratch, reused across blocks (a Module is
	// single-owner, so plain fields suffice; see the concurrency note above)
	pstate *progState
	outs   []uint64
	tokens []uint64
	excs   []exception
}

// NewModule builds a module from a parsed configuration, compiling the
// stage-2 netlist once so decoding never interprets names again.
func NewModule(cfg *Config) (*Module, error) {
	m := &Module{cfg: cfg}
	if cfg.Extractor == ExtractSelector {
		switch cfg.SelectorTable {
		case "s16":
			m.s16 = compress.S16FieldWidths()
		case "s8b":
			m.s8b = compress.S8bModeTable()
		default:
			return nil, fmt.Errorf("decomp: unknown selector table %q", cfg.SelectorTable)
		}
	}
	m.prog = compile(cfg.Netlist)
	m.pstate = newProgState(m.prog)
	m.kernel = kernelFor(cfg, m.prog)
	return m, nil
}

// kernelKind selects how DecodeInto runs a block.
type kernelKind uint8

const (
	kernelNetlist kernelKind = iota // simulate all four stages
	kernelVB
	kernelFixedWidth
	kernelPFD
	kernelS16
	kernelS8b
)

// kernelFor applies the elision rule: stage 2 is simulated only when a
// kernel cannot reproduce it. For an identity program on a field extractor
// it can change neither a value nor a cycle count — the extractor emits
// exactly n tokens, each passes through unchanged and valid, the program
// cannot fail, and the block's cycle count is the extractor's alone. On the
// byte extractor the netlist's cycle count is the block's, so only one
// program qualifies there: the built-in VB accumulator (compiled programs
// are name-free, so the test is structural and a user config of the same
// circuit qualifies too), with stage 3 off. Its count is one cycle per byte
// up to the byte completing value n, which compress.DecodeVB reports as
// the bytes it consumed. PFD framing with stage 3 switched off, which no
// built-in scheme uses and the fused kernel (which always patches) does not
// model, stays on the netlist as well.
func kernelFor(cfg *Config, p *program) kernelKind {
	if cfg.Extractor == ExtractByte {
		if !cfg.UseExceptions && p.equal(vbProgram) {
			return kernelVB
		}
		return kernelNetlist
	}
	if !p.isIdentity() {
		return kernelNetlist
	}
	switch {
	case cfg.Extractor == ExtractFixedWidth && cfg.PFDHeader && cfg.UseExceptions:
		return kernelPFD
	case cfg.Extractor == ExtractFixedWidth && !cfg.PFDHeader:
		return kernelFixedWidth
	case cfg.Extractor == ExtractSelector && cfg.SelectorTable == "s16":
		return kernelS16
	case cfg.Extractor == ExtractSelector:
		return kernelS8b
	}
	return kernelNetlist
}

// vbProgram is the built-in VB configuration's compiled stage 2, the paper's
// Figure 8 accumulator: the one byte-extractor program with a kernel.
var vbProgram = compile(ConfigFor(compress.VB).Netlist)

// NewModuleFor builds a module from the built-in configuration of a scheme.
func NewModuleFor(s compress.Scheme) *Module {
	m, err := NewModule(ConfigFor(s))
	if err != nil {
		panic(err)
	}
	return m
}

// Cycles reports total datapath cycles consumed since creation.
func (m *Module) Cycles() int64 { return m.cycles }

// Blocks reports how many block payloads were decoded.
func (m *Module) Blocks() int64 { return m.blocks }

// Values reports how many values were produced.
func (m *Module) Values() int64 { return m.values }

// DecodeInto runs the four-stage datapath over a block payload, producing n
// values appended to dst (which may be nil; callers that recycle buffers
// decode without allocating). base and applyDelta drive stage 4 (docID
// streams use delta with the block's first docID as base; tf streams do
// not). It returns the extended slice, the number of payload bytes consumed,
// and the cycles the block occupied the datapath.
//
//boss:hotpath the per-block decode loop; error construction is outlined.
func (m *Module) DecodeInto(dst []uint32, payload []byte, n int, base uint32, applyDelta bool) (values []uint32, bytesConsumed int, cycles int, err error) {
	if m.kernel == kernelNetlist || n <= 0 {
		return m.decodeNetlist(dst, payload, n, base, applyDelta)
	}
	// Stages 1, 3 and 4 fused: the kernel writes final values into dst and
	// the delta pass runs in place. Stage 2 is not simulated: it is the
	// identity, or for VB the accumulator DecodeVB computes.
	var (
		used, nExc int
		f          compress.Fault
	)
	start := len(dst)
	switch m.kernel {
	case kernelVB:
		values, used, f = compress.DecodeVB(dst, payload, n)
	case kernelPFD:
		values, used, nExc, f = compress.DecodePFD(dst, payload, n)
	case kernelS16:
		values, used, f = compress.DecodeS16(dst, payload, n)
	case kernelS8b:
		values, used, f = compress.DecodeS8b(dst, payload, n)
	default:
		headerBytes, width, err := widthHeader(payload, m.cfg.HeaderLength)
		if err != nil {
			return nil, 0, 0, err
		}
		values, used, f = compress.UnpackBits(dst, payload[headerBytes:], n, width)
		used += headerBytes
	}
	if f.Kind != compress.FaultNone {
		return nil, 0, 0, errFault(f)
	}
	if applyDelta {
		compress.DeltaDecode(values[start:], base)
	}
	if m.kernel == kernelVB {
		cycles = used + pipelineDepth // one byte a cycle
	} else {
		cycles = (n+extractLanes-1)/extractLanes + nExc + pipelineDepth
	}
	m.cycles += int64(cycles)
	m.blocks++
	m.values += int64(n)
	return values, used, cycles, nil
}

// decodeNetlist simulates the full four-stage datapath. It is the engine
// for every program no kernel reproduces (any user scheme that is neither
// a passthrough nor the Figure 8 accumulator), for degenerate value counts,
// and the reference the fused kernels are differentially fuzzed against
// (FuzzDecodeFastVsNetlist).
//
//boss:hotpath the per-block decode loop; error construction is outlined.
func (m *Module) decodeNetlist(dst []uint32, payload []byte, n int, base uint32, applyDelta bool) (values []uint32, bytesConsumed int, cycles int, err error) {
	var (
		outs       []uint64
		exceptions []exception
		netCycles  int
		used       int
		extCycles  int
	)
	if m.cfg.Extractor == ExtractByte {
		// Byte-serial fast path: stages 1 and 2 fuse. Payload bytes stream
		// into the compiled netlist one per cycle and stop at the byte
		// completing value n, so the consumption is exact by construction
		// and long tail payloads never cost O(payload) per block.
		outs, netCycles, err = m.prog.runBytes(m.pstate, m.outs[:0], payload, n)
		if err != nil {
			return nil, 0, 0, err
		}
		used = netCycles
	} else {
		// Stage 1: extraction into module-owned token scratch.
		var tokens []uint64
		tokens, exceptions, used, extCycles, err = m.extract(payload, n)
		if err != nil {
			return nil, 0, 0, err
		}
		// Stage 2: the compiled netlist program.
		outs, netCycles, err = m.prog.run(m.pstate, m.outs[:0], tokens, n)
		if err != nil {
			return nil, 0, 0, err
		}
	}
	m.outs = outs
	if len(outs) != n {
		return nil, 0, 0, errValueCount(len(outs), n) //boss:escape-ok cold value-count-corrupt error path
	}

	// Stage 3: exception patching.
	if m.cfg.UseExceptions {
		for _, e := range exceptions {
			if e.pos >= len(outs) {
				return nil, 0, 0, errFault(compress.Fault{Kind: compress.FaultPFDPosition, A: e.pos})
			}
			outs[e.pos] |= e.high
		}
	}

	// Stage 4: delta accumulation, appended to the caller's buffer.
	values = dst
	if applyDelta {
		acc := uint64(base)
		for _, v := range outs {
			acc += v
			values = append(values, uint32(acc))
		}
	} else {
		for _, v := range outs {
			values = append(values, uint32(v))
		}
	}

	// Field-structured schemes flow through the lanes end to end (stage 2
	// is stateless for them); a byte-serial netlist is bound by its
	// one-byte-per-cycle register dependency.
	if m.cfg.Extractor == ExtractByte {
		cycles = netCycles
	} else {
		cycles = extCycles
	}
	cycles += pipelineDepth
	m.cycles += int64(cycles)
	m.blocks++
	m.values += int64(n)
	return values, used, cycles, nil
}

// errValueCount and errFault build the corrupt-payload errors. Outlined so
// the hot decode loops carry no fmt call (hotpathalloc); both fire only on
// malformed input.
func errValueCount(got, want int) error {
	return fmt.Errorf("decomp: produced %d values, want %d", got, want)
}

// errFault turns a stage-1 or stage-3 refusal into the module's error. The
// fused kernels report a compress.Fault and the netlist path's extractors
// build the same Fault, so the two paths cannot drift apart in text (core
// wraps it into the typed error callers see). A VB payload that runs out is
// no stage-1 refusal on the netlist — the byte stream just ends — so its
// fault takes the netlist's value-count text. Kept out of line so the hot
// decode loops carry no allocation site (hotpathescape).
//
//go:noinline
func errFault(f compress.Fault) error {
	if f.Kind == compress.FaultVBTruncated {
		return errValueCount(f.A, f.B)
	}
	return errors.New("decomp: " + f.String())
}

// widthHeader parses the BP layout's width header: headerLength bits
// (rounded up to whole bytes) whose first byte is the field width.
func widthHeader(payload []byte, headerLength int) (headerBytes, width int, err error) {
	headerBytes = (headerLength + 7) / 8
	if headerBytes < 1 {
		return 0, 0, errors.New("decomp: fixed-width extractor needs a width header")
	}
	if len(payload) < headerBytes {
		return 0, 0, errors.New("decomp: payload shorter than header")
	}
	width = int(payload[0])
	if width > 32 {
		return 0, 0, fmt.Errorf("decomp: width %d out of range", width)
	}
	return headerBytes, width, nil
}

// extract runs the configured stage-1 unit, reusing the module's token and
// exception scratch across blocks. The byte extractor never reaches here:
// decodeNetlist streams bytes straight into the compiled netlist.
func (m *Module) extract(payload []byte, n int) (tokens []uint64, exceptions []exception, used, cycles int, err error) {
	switch m.cfg.Extractor {
	case ExtractFixedWidth:
		if m.cfg.PFDHeader {
			tokens, exceptions, used, cycles, err = extractPFD(m.tokens[:0], m.excs[:0], payload, n)
			if tokens != nil {
				m.tokens = tokens[:0]
			}
			if exceptions != nil {
				m.excs = exceptions[:0]
			}
			return tokens, exceptions, used, cycles, err
		}
		tokens, used, cycles, err = extractFixedWidth(m.tokens[:0], payload, n, m.cfg.HeaderLength)
	case ExtractSelector:
		if m.s16 != nil {
			tokens, used, cycles, err = extractS16(m.tokens[:0], payload, n, m.s16)
		} else {
			tokens, used, cycles, err = extractS8b(m.tokens[:0], payload, n, m.s8b)
		}
	default:
		return nil, nil, 0, 0, fmt.Errorf("decomp: unknown extractor")
	}
	if tokens != nil {
		m.tokens = tokens[:0]
	}
	return tokens, nil, used, cycles, err
}

// extractFixedWidth handles the BP layout: a width header of headerLength
// bits (rounded up to whole bytes) followed by n packed fields.
func extractFixedWidth(dst []uint64, payload []byte, n, headerLength int) ([]uint64, int, int, error) {
	headerBytes, width, err := widthHeader(payload, headerLength)
	if err != nil {
		return nil, 0, 0, err
	}
	tokens, used, err := unpackFields(dst, payload[headerBytes:], n, width)
	if err != nil {
		return nil, 0, 0, err
	}
	return tokens, headerBytes + used, (n + extractLanes - 1) / extractLanes, nil
}

// extractPFD handles the PForDelta layout (see internal/compress/pfd.go):
// [b][nExc][positions][low bits][VB-coded exception highs]. The exception
// highs are pre-shifted so stage 3 only ORs them in.
func extractPFD(dst []uint64, excDst []exception, payload []byte, n int) ([]uint64, []exception, int, int, error) {
	if len(payload) < 2 {
		return nil, nil, 0, 0, errFault(compress.Fault{Kind: compress.FaultPFDHeader})
	}
	b := int(payload[0])
	nExc := int(payload[1])
	pos := 2
	if len(payload) < pos+nExc {
		return nil, nil, 0, 0, errFault(compress.Fault{Kind: compress.FaultPFDPositions})
	}
	excPos := payload[pos : pos+nExc]
	pos += nExc
	tokens, used, err := unpackFields(dst, payload[pos:], n, b)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	pos += used
	exceptions := excDst
	for i := 0; i < nExc; i++ {
		var hv uint64
		for {
			if pos >= len(payload) {
				return nil, nil, 0, 0, errFault(compress.Fault{Kind: compress.FaultPFDExceptions})
			}
			by := payload[pos]
			pos++
			hv = hv<<7 | uint64(by&0x7F)
			if by&0x80 != 0 {
				break
			}
		}
		exceptions = append(exceptions, exception{pos: int(excPos[i]), high: hv << uint(b)})
	}
	return tokens, exceptions, pos, (n+extractLanes-1)/extractLanes + nExc, nil
}

// extractS16 walks Simple16 words, emitting fields as tokens.
func extractS16(dst []uint64, payload []byte, n int, table [][]int) ([]uint64, int, int, error) {
	tokens := dst
	pos := 0
	for len(tokens) < n {
		if pos+4 > len(payload) {
			return nil, 0, 0, errFault(compress.Fault{Kind: compress.FaultS16Truncated})
		}
		word := binary.LittleEndian.Uint32(payload[pos:])
		pos += 4
		widths := table[word>>28]
		shift := 0
		for _, w := range widths {
			if len(tokens) >= n {
				break
			}
			tokens = append(tokens, uint64((word>>uint(shift))&(1<<uint(w)-1)))
			shift += w
		}
	}
	return tokens, pos, (n + extractLanes - 1) / extractLanes, nil
}

// extractS8b walks Simple8b words, emitting fields as tokens.
func extractS8b(dst []uint64, payload []byte, n int, table []compress.S8bModeInfo) ([]uint64, int, int, error) {
	tokens := dst
	pos := 0
	for len(tokens) < n {
		if pos+8 > len(payload) {
			return nil, 0, 0, errFault(compress.Fault{Kind: compress.FaultS8bTruncated})
		}
		word := binary.LittleEndian.Uint64(payload[pos:])
		pos += 8
		m := table[word>>60]
		if m.Width == 0 {
			for i := 0; i < m.Count && len(tokens) < n; i++ {
				tokens = append(tokens, 0)
			}
			continue
		}
		mask := uint64(1)<<uint(m.Width) - 1
		shift := 0
		for i := 0; i < m.Count && len(tokens) < n; i++ {
			tokens = append(tokens, (word>>uint(shift))&mask)
			shift += m.Width
		}
	}
	return tokens, pos, (n + extractLanes - 1) / extractLanes, nil
}

// unpackFields reads n fields of width bits from src (LSB-first bit
// stream), appending uint64 tokens to dst.
func unpackFields(dst []uint64, src []byte, n, width int) ([]uint64, int, error) {
	if width == 0 {
		for i := 0; i < n; i++ {
			dst = append(dst, 0)
		}
		return dst, 0, nil
	}
	need := (n*width + 7) / 8
	if len(src) < need {
		return nil, 0, errFault(compress.Fault{Kind: compress.FaultFieldsTruncated, A: len(src), B: need})
	}
	mask := uint64(1)<<uint(width) - 1
	tokens := dst
	var acc uint64
	accBits := 0
	pos := 0
	for i := 0; i < n; i++ {
		for accBits < width {
			acc |= uint64(src[pos]) << uint(accBits)
			pos++
			accBits += 8
		}
		tokens = append(tokens, acc&mask)
		acc >>= uint(width)
		accBits -= width
	}
	return tokens, pos, nil
}
