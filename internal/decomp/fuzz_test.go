package decomp

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"boss/internal/compress"
)

// FuzzParseConfig checks the configuration-language parser never panics on
// arbitrary text.
func FuzzParseConfig(f *testing.F) {
	for _, s := range compress.AllSchemes() {
		f.Add(ConfigText(s))
	}
	f.Add("Extractor[1].use = 1\nOutput := Input\nOutput.valid := 1")
	f.Add("RegInit(R, 0, x)\nx := SHR(Input, 99999999999999999999)")
	f.Add("Extractor[-1].use = 1")
	f.Add("a := MUX(b, c, d, e)")
	f.Add("= = = =")
	f.Fuzz(func(t *testing.T, src string) {
		cfg, err := ParseConfig(src)
		if err != nil {
			return
		}
		// Anything accepted must be runnable without panicking (errors are
		// acceptable: undefined wires surface at run time).
		cfg.Netlist.Run([]uint64{0, 1, 0x80, 0xFF}, 8)
	})
}

// FuzzCompiledNetlist is the differential check that licenses the compiled
// fast path: for any parseable netlist program and any token stream, the
// compiled program must match the interpreter in output values, cycle
// counts, and errors (including error messages). The interpreter is the
// reference semantics; a divergence here is a compiler bug by definition.
func FuzzCompiledNetlist(f *testing.F) {
	for _, s := range compress.AllSchemes() {
		f.Add(ConfigText(s), []byte{0x02, 0xAC, 0x85, 0x00, 0xFF}, int8(-1))
	}
	f.Add(nibbleNetlist, []byte{0x12, 0x9A, 0x00}, int8(3))
	f.Add("Extractor[1].use = 1\nOutput := missing\nOutput.valid := 1", []byte{1}, int8(-1))
	f.Add("Extractor[1].use = 1\nRegInit(R, 9, w)\nw := SHR(Input, 7)\nR := ADD(R, Input)\nOutput := R\nOutput.valid := w", []byte{0x80, 0x01, 0x81}, int8(1))
	f.Add("Extractor[1].use = 1\nRegInit(Output, 1, x)\nx := AND(Input, 1)\nOutput := Input\nOutput.valid := 1", []byte{3, 4}, int8(-1))
	f.Fuzz(func(t *testing.T, src string, tokenBytes []byte, maxSeed int8) {
		cfg, err := ParseConfig(src)
		if err != nil {
			return
		}
		tokens := make([]uint64, len(tokenBytes))
		for i, b := range tokenBytes {
			// Mix small byte-like tokens with wide ones so shifts and adds
			// exercise the full 64-bit datapath.
			tokens[i] = uint64(b) << (uint(i) % 33)
		}
		max := int(maxSeed)
		iv, ic, ierr := cfg.Netlist.Run(tokens, max)
		p := compile(cfg.Netlist)
		cv, cc, cerr := p.run(newProgState(p), nil, tokens, max)
		if (ierr == nil) != (cerr == nil) {
			t.Fatalf("error divergence: interpreter=%v compiled=%v", ierr, cerr)
		}
		if ierr != nil && ierr.Error() != cerr.Error() {
			t.Fatalf("error message divergence: %v vs %v", ierr, cerr)
		}
		if ierr == nil && !reflect.DeepEqual(iv, cv) {
			t.Fatalf("value divergence:\n interpreter: %v\n compiled:    %v", iv, cv)
		}
		if ic != cc {
			t.Fatalf("cycle divergence: interpreter=%d compiled=%d", ic, cc)
		}
	})
}

// FuzzDecodeRoundTrip checks encode→module-decode round trips for every
// scheme: whatever values a codec accepts must come back bit-exactly (and
// with exact byte consumption) through the hardware datapath, both into a
// fresh buffer and appended to caller scratch.
func FuzzDecodeRoundTrip(f *testing.F) {
	for i := range compress.AllSchemes() {
		vals := []uint32{0, 1, 127, 128, 300, 1 << 20, uint32(i)}
		raw := make([]byte, 4*len(vals))
		for j, v := range vals {
			binary.LittleEndian.PutUint32(raw[4*j:], v)
		}
		f.Add(uint8(i), raw, uint32(100*i))
	}
	f.Fuzz(func(t *testing.T, schemeSeed uint8, raw []byte, base uint32) {
		scheme := compress.AllSchemes()[int(schemeSeed)%len(compress.AllSchemes())]
		codec := compress.ForScheme(scheme)
		n := len(raw) / 4
		if n == 0 || n > 128 {
			return
		}
		values := make([]uint32, n)
		for i := range values {
			values[i] = binary.LittleEndian.Uint32(raw[4*i:])
			if values[i] > codec.MaxValue() {
				values[i] %= codec.MaxValue() + 1
			}
		}
		if !codec.Supports(values) {
			return
		}
		payload := codec.Encode(nil, values)
		mod := NewModuleFor(scheme)
		got, used, cycles, err := mod.DecodeInto(nil, payload, n, 0, false)
		if err != nil {
			t.Fatalf("%s: decode of valid payload failed: %v", scheme, err)
		}
		if !reflect.DeepEqual(got, values) {
			t.Fatalf("%s: round trip mismatch\n got %v\nwant %v", scheme, got, values)
		}
		if used != len(payload) {
			t.Fatalf("%s: consumed %d bytes, payload %d", scheme, used, len(payload))
		}
		if cycles <= 0 {
			t.Fatalf("%s: nonpositive cycle count", scheme)
		}
		// Append-into-scratch path: same values after the prefix, and the
		// delta stage must produce the same stream shifted by base.
		scratch := append(make([]uint32, 0, n+1), 0xDEAD)
		withDelta, _, _, err := mod.DecodeInto(scratch, payload, n, base, true)
		if err != nil {
			t.Fatalf("%s: DecodeInto failed: %v", scheme, err)
		}
		if withDelta[0] != 0xDEAD || len(withDelta) != n+1 {
			t.Fatalf("%s: DecodeInto disturbed the caller prefix", scheme)
		}
		acc := base
		for i, v := range values {
			acc += v
			if withDelta[i+1] != acc {
				t.Fatalf("%s: delta stage mismatch at %d", scheme, i)
			}
		}
	})
}

// FuzzModuleDecode checks that decoding arbitrary (often corrupt) payloads
// returns errors rather than panicking, for every scheme and on both the
// fused-kernel path and the netlist path.
func FuzzModuleDecode(f *testing.F) {
	codec := compress.ForScheme(compress.BP)
	f.Add(uint8(0), codec.Encode(nil, []uint32{1, 2, 3}), uint8(3))
	f.Add(uint8(4), []byte{0xFF, 0x01}, uint8(10))
	f.Add(uint8(2), []byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, schemeSeed uint8, payload []byte, nSeed uint8) {
		scheme := compress.AllSchemes()[int(schemeSeed)%len(compress.AllSchemes())]
		mod := NewModuleFor(scheme)
		n := int(nSeed)%128 + 1
		// Must not panic; error or success are both acceptable.
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: Decode panicked on corrupt payload: %v", scheme, r)
			}
		}()
		mod.DecodeInto(nil, payload, n, 0, true)
		mod.decodeNetlist(nil, payload, n, 0, true)
	})
}

// vbNearMisses are programs one edit away from the Figure 8 accumulator,
// each of which the VB kernel must refuse: a shift that is not 7, a
// register that never resets, and stage 3 switched on.
var vbNearMisses = []string{
	strings.Replace(ConfigText(compress.VB), "SHL(Reg, 7)", "SHL(Reg, 8)", 1),
	strings.Replace(ConfigText(compress.VB), "reset := SHR(Input, 0x7)\n", "", 1),
	strings.Replace(ConfigText(compress.VB), "ExceptionValue = ExceptionIndex = 0", "UseExceptions = 1", 1),
}

// fastVsNetlistConfigs are the module configurations the differential
// fuzzer drives: the six built-in schemes, the near misses of VB's
// accumulator (which must stay on the netlist, so both sides simulate
// them), plus passthrough user programs that reach corners no built-in
// does.
var fastVsNetlistConfigs = func() []string {
	var cfgs []string
	for _, s := range compress.AllSchemes() {
		cfgs = append(cfgs, ConfigText(s))
	}
	cfgs = append(cfgs, vbNearMisses...)
	return append(cfgs,
		// a two-byte width header
		"Extractor[0].use = 1\nExtractor[0].headerLength = 16\n"+identityNetlist+"UseDelta = 1",
		// a fixed-width extractor that was never given a header
		"Extractor[0].use = 1\n"+identityNetlist,
		// PFD framing with stage 3 off: identity, but kept on the netlist
		"Extractor[0].use = 1\nExtractor[0].pfdHeader = 1\n"+identityNetlist,
		// dead wires and an overwritten Output around a passthrough
		"Extractor[2].use = 1\nExtractor[2].table = s8b\nOutput := SHL(Input, 1)\nscratch := ADD(Input, 7)\nOutput := Input\nOutput.valid := 0\nOutput.valid := 0x10",
		// not a passthrough: one op between Input and Output
		"Extractor[2].use = 1\nExtractor[2].table = s16\nOutput := ADD(Input, 1)\nOutput.valid := 1\nUseExceptions = 1",
	)
}()

// FuzzDecodeFastVsNetlist is the differential check that licenses eliding
// stage 2 and fusing stages 1, 3 and 4: for any configuration, payload,
// value count, base and delta switch, DecodeInto (which takes the fused
// kernel whenever the program is statically the identity) and decodeNetlist
// (the full simulation) on two modules of the same configuration must agree
// on the values, the bytes consumed, the cycle count, the module counters,
// and the error — nil-ness and text, since core wraps that text into the
// typed error a query returns. The netlist is the reference; a divergence
// is a bug in the fast path by definition.
func FuzzDecodeFastVsNetlist(f *testing.F) {
	vals := make([]uint32, 128)
	for i := range vals {
		vals[i] = uint32(i*2654435761) >> 22
	}
	vals[9], vals[77] = 1<<27, 1<<25 // PFD exceptions
	for i, s := range compress.AllSchemes() {
		payload := compress.ForScheme(s).Encode(nil, vals)
		f.Add(uint8(i), payload, uint16(len(vals)), uint32(1000), true)
		f.Add(uint8(i), payload[:len(payload)/2], uint16(len(vals)), uint32(0), false) // truncated
		f.Add(uint8(i), payload, uint16(0), uint32(7), true)
		f.Add(uint8(i), []byte{}, uint16(1), uint32(0), true)
	}
	f.Add(uint8(0), []byte{33, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint16(1), uint32(0), false)                                          // BP width > 32
	f.Add(uint8(2), append([]byte{40, 0}, make([]byte, 40)...), uint16(8), uint32(0), true)                                         // PFD b > 32
	f.Add(uint8(2), append([]byte{200, 1, 0}, make([]byte, 64)...), uint16(2), uint32(5), true)                                     // PFD b > 64
	f.Add(uint8(2), []byte{4, 1, 9, 0x21, 0x43, 0x81}, uint16(4), uint32(0), false)                                                 // exception position >= n
	f.Add(uint8(3), []byte{4, 2, 1, 1, 0x21, 0x43, 0x81, 0x82}, uint16(4), uint32(0), true)                                         // duplicate exception position
	f.Add(uint8(3), []byte{4, 2, 9, 1, 0x21, 0x43, 0x81, 0x02}, uint16(4), uint32(0), true)                                         // bad position, then a truncated stream
	f.Add(uint8(2), []byte{4, 3, 1}, uint16(4), uint32(0), true)                                                                    // position list truncated
	f.Add(uint8(3), []byte{2, 1, 0, 0xFF, 0x7F, 0x7F, 0x7F, 0x7F, 0x7F, 0x7F, 0x7F, 0x7F, 0x7F, 0xFF}, uint16(4), uint32(0), false) // exception high overflows 64 bits
	f.Add(uint8(4), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x02}, uint16(2), uint32(0), true)                                         // S16 second word truncated
	f.Add(uint8(5), []byte{0, 0, 0, 0, 0, 0, 0, 0x00}, uint16(256), uint32(3), true)                                                // S8b run of 240 zeros, then truncated
	f.Add(uint8(5), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint16(1), uint32(1), true)                             // S8b 60-bit field
	f.Add(uint8(1), []byte{0x7F, 0x7F, 0x7F, 0x7F, 0xFF, 0x81}, uint16(2), uint32(9), true)                                         // VB 5-byte value 2^35-1, above 2^32
	f.Add(uint8(1), append(bytes.Repeat([]byte{0x55}, 11), 0xAA, 0x83), uint16(2), uint32(0), false)                                // VB 11 continuation bytes: 84 bits through a 64-bit register
	f.Add(uint8(1), []byte{0x85, 0x86, 0x87, 0x01, 0x02}, uint16(2), uint32(4), true)                                               // VB trailing bytes after value n
	f.Add(uint8(1), []byte{0x01, 0x02, 0x85, 0x03}, uint16(0), uint32(0), true)                                                     // VB n = 0, a terminated value in the payload
	f.Add(uint8(1), []byte{0x01, 0x02, 0x03}, uint16(0), uint32(0), true)                                                           // VB n = 0, no terminated value
	vbPayload := compress.ForScheme(compress.VB).Encode(nil, vals[:40])
	for i := len(compress.AllSchemes()); i < len(fastVsNetlistConfigs); i++ {
		f.Add(uint8(i), []byte{8, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, uint16(5), uint32(2), true)
		f.Add(uint8(i), vbPayload, uint16(40), uint32(3), true)
	}
	f.Fuzz(func(t *testing.T, cfgSeed uint8, payload []byte, nSeed uint16, base uint32, applyDelta bool) {
		src := fastVsNetlistConfigs[int(cfgSeed)%len(fastVsNetlistConfigs)]
		n := int(nSeed) % 257
		fast, ref := mustModule(t, src), mustModule(t, src)
		prefix := []uint32{0xDEAD}
		fv, fu, fc, ferr := fast.DecodeInto(prefix, payload, n, base, applyDelta)
		rv, ru, rc, rerr := ref.decodeNetlist(prefix, payload, n, base, applyDelta)
		if (ferr == nil) != (rerr == nil) {
			t.Fatalf("error divergence: fast=%v netlist=%v", ferr, rerr)
		}
		if ferr != nil && ferr.Error() != rerr.Error() {
			t.Fatalf("error text divergence: fast=%q netlist=%q", ferr, rerr)
		}
		if !reflect.DeepEqual(fv, rv) {
			t.Fatalf("value divergence:\n fast:    %v\n netlist: %v", fv, rv)
		}
		if fu != ru || fc != rc {
			t.Fatalf("fast consumed %d bytes in %d cycles, netlist %d in %d", fu, fc, ru, rc)
		}
		if fast.Cycles() != ref.Cycles() || fast.Blocks() != ref.Blocks() || fast.Values() != ref.Values() {
			t.Fatalf("counter divergence: fast %d/%d/%d, netlist %d/%d/%d",
				fast.Cycles(), fast.Blocks(), fast.Values(), ref.Cycles(), ref.Blocks(), ref.Values())
		}
	})
}

func mustModule(t *testing.T, src string) *Module {
	t.Helper()
	cfg, err := ParseConfig(src)
	if err != nil {
		t.Fatalf("config does not parse: %v", err)
	}
	m, err := NewModule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// FuzzIdentityClassification checks the soundness of the static rule from
// the other side: whatever program ParseConfig accepts, if the compiler
// classifies it as the identity then both the interpreter and the compiled
// program must emit exactly their input tokens, one per cycle, with no
// error — the three facts eliding stage 2 relies on.
func FuzzIdentityClassification(f *testing.F) {
	for _, src := range fastVsNetlistConfigs {
		f.Add(src, []byte{0x02, 0xAC, 0x85, 0x00, 0xFF})
	}
	f.Add(nibbleNetlist, []byte{0x12, 0x9A})
	f.Add("Extractor[1].use = 1\nRegInit(R, 0, x)\nOutput := Input\nOutput.valid := 1", []byte{1, 2})
	f.Add("Extractor[1].use = 1\nOutput := Input\nOutput.valid := Input", []byte{0, 2})
	f.Add("Extractor[1].use = 1\nOutput := Input\nOutput.valid := 1\nx := AND(y, 1)", []byte{3})
	f.Add("Extractor[1].use = 1\nw := Input\nOutput := w\nOutput.valid := 1", []byte{3})
	f.Fuzz(func(t *testing.T, src string, tokenBytes []byte) {
		cfg, err := ParseConfig(src)
		if err != nil {
			return
		}
		p := compile(cfg.Netlist)
		if !p.isIdentity() {
			return
		}
		tokens := make([]uint64, len(tokenBytes))
		for i, b := range tokenBytes {
			tokens[i] = uint64(b) << (uint(i) % 57)
		}
		want := tokens
		if len(want) == 0 {
			want = nil
		}
		iv, ic, ierr := cfg.Netlist.Run(tokens, -1)
		cv, cc, cerr := p.run(newProgState(p), nil, tokens, -1)
		if ierr != nil || cerr != nil {
			t.Fatalf("identity program failed: interpreter=%v compiled=%v", ierr, cerr)
		}
		if !reflect.DeepEqual(iv, want) || !reflect.DeepEqual(cv, want) {
			t.Fatalf("identity program changed its input:\n tokens:      %v\n interpreter: %v\n compiled:    %v", tokens, iv, cv)
		}
		if ic != len(tokens) || cc != len(tokens) {
			t.Fatalf("identity program took %d/%d cycles for %d tokens", ic, cc, len(tokens))
		}
	})
}
