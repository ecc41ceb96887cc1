package decomp

import (
	"math/rand"
	"reflect"
	"testing"

	"boss/internal/compress"
)

// diffNetlist runs the same tokens through the interpreter and the compiled
// program and fails on any divergence in values, cycles, or errors.
func diffNetlist(t *testing.T, nl *Netlist, tokens []uint64, max int) {
	t.Helper()
	iv, ic, ierr := nl.Run(tokens, max)
	p := compile(nl)
	cv, cc, cerr := p.run(newProgState(p), nil, tokens, max)
	if (ierr == nil) != (cerr == nil) {
		t.Fatalf("error divergence: interpreter=%v compiled=%v", ierr, cerr)
	}
	if ierr != nil {
		if ierr.Error() != cerr.Error() {
			t.Fatalf("error message divergence:\n interpreter: %v\n compiled:    %v", ierr, cerr)
		}
	} else if !reflect.DeepEqual(iv, cv) {
		t.Fatalf("value divergence:\n interpreter: %v\n compiled:    %v", iv, cv)
	}
	if ic != cc {
		t.Fatalf("cycle divergence: interpreter=%d compiled=%d", ic, cc)
	}
}

func TestCompiledMatchesInterpreterBuiltins(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range compress.AllSchemes() {
		cfg := ConfigFor(s)
		for trial := 0; trial < 20; trial++ {
			tokens := make([]uint64, rng.Intn(64))
			for i := range tokens {
				tokens[i] = uint64(rng.Intn(256))
			}
			diffNetlist(t, cfg.Netlist, tokens, rng.Intn(10)-1)
		}
	}
}

func TestCompiledMatchesInterpreterCornerCases(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"undefined wire", `
Extractor[1].use = 1
Output := nonexistent
Output.valid := 1
`},
		{"wire read before later assignment", `
Extractor[1].use = 1
Output := late
late := AND(Input, 1)
Output.valid := 1
`},
		{"output driven as register", `
Extractor[1].use = 1
RegInit( Output, 7, never )
Output := Input
Output.valid := 1
`},
		{"duplicate register declaration", `
Extractor[1].use = 1
RegInit( R, 1, rst )
RegInit( R, 2, rst2 )
rst := AND(Input, 1)
rst2 := SHR(Input, 1)
R := ADD(R, Input)
Output := R
Output.valid := 1
`},
		{"register named Input shadowed by port", `
Extractor[1].use = 1
RegInit( Input, 5, never )
never := AND(Input, 0)
Output := Input
Output.valid := 1
`},
		{"reset names a register", `
Extractor[1].use = 1
RegInit( A, 3, B )
RegInit( B, 0, nothing )
nothing := AND(Input, 0)
A := ADD(A, Input)
B := Input
Output := A
Output.valid := 1
`},
		{"valid never driven", `
Extractor[1].use = 1
Output := Input
`},
		{"multiple writes same wire", `
Extractor[1].use = 1
w := AND(Input, 0xF)
w := SHL(w, 1)
Output := w
Output.valid := 1
`},
		{"mux with wire operands", `
Extractor[1].use = 1
cond := SHR(Input, 7)
low := AND(Input, 0x7F)
Output := MUX(cond, low, Input)
Output.valid := 1
`},
	}
	rng := rand.New(rand.NewSource(23))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := ParseConfig(tc.src)
			if err != nil {
				t.Fatalf("config does not parse: %v", err)
			}
			diffNetlist(t, cfg.Netlist, nil, -1)
			for trial := 0; trial < 10; trial++ {
				tokens := make([]uint64, 1+rng.Intn(32))
				for i := range tokens {
					tokens[i] = rng.Uint64() >> uint(rng.Intn(60))
				}
				diffNetlist(t, cfg.Netlist, tokens, rng.Intn(6)-1)
			}
		})
	}
}

func TestCompiledStaticErrorOnlyWithTokens(t *testing.T) {
	// The interpreter reports a read-before-assignment on the first
	// evaluated cycle; with no tokens there is no cycle and no error. The
	// compiled program must reproduce both sides.
	cfg, err := ParseConfig(`
Extractor[1].use = 1
Output := nonexistent
Output.valid := 1
`)
	if err != nil {
		t.Fatal(err)
	}
	p := compile(cfg.Netlist)
	if p.staticErr == nil {
		t.Fatal("compile did not flag the undefined wire")
	}
	if _, cycles, err := p.run(newProgState(p), nil, nil, -1); err != nil || cycles != 0 {
		t.Fatalf("empty input: err=%v cycles=%d, want nil/0", err, cycles)
	}
	if _, cycles, err := p.run(newProgState(p), nil, []uint64{1, 2, 3}, -1); err == nil || cycles != 1 {
		t.Fatalf("tokens: err=%v cycles=%d, want error at cycle 1", err, cycles)
	}
}

func TestCompiledRunBytesMatchesTokenRun(t *testing.T) {
	cfg := ConfigFor(compress.VB)
	p := compile(cfg.Netlist)
	codec := compress.ForScheme(compress.VB)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(64)
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = rng.Uint32() >> uint(rng.Intn(31))
		}
		payload := codec.Encode(nil, vals)
		tokens := make([]uint64, len(payload))
		for i, b := range payload {
			tokens[i] = uint64(b)
		}
		s := newProgState(p)
		tv, tc, terr := p.run(s, nil, tokens, n)
		bv, bc, berr := p.runBytes(s, nil, payload, n)
		if terr != nil || berr != nil {
			t.Fatalf("trial %d: errors %v / %v", trial, terr, berr)
		}
		if !reflect.DeepEqual(tv, bv) || tc != bc {
			t.Fatalf("trial %d: byte feed diverged from token feed", trial)
		}
	}
}

// decodeFunc is the shape DecodeInto and decodeNetlist share, so a test or
// benchmark can run either path of a module.
type decodeFunc func(m *Module, dst []uint32, payload []byte, n int, base uint32, applyDelta bool) ([]uint32, int, int, error)

// requireAllocFree decodes one warm 128-value block per scheme through
// decode and fails if the steady state allocates.
func requireAllocFree(t *testing.T, schemes []compress.Scheme, decode decodeFunc) {
	t.Helper()
	for _, s := range schemes {
		codec := compress.ForScheme(s)
		vals := make([]uint32, 128)
		for i := range vals {
			vals[i] = uint32(i * 37 % 1024)
		}
		vals[9] = 1 << 24 // keep a PFD exception in play
		payload := codec.Encode(nil, vals)
		mod := NewModuleFor(s)
		dst := make([]uint32, 0, len(vals))
		// Warm the scratch.
		if _, _, _, err := decode(mod, dst, payload, len(vals), 0, true); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		avg := testing.AllocsPerRun(20, func() {
			if _, _, _, err := decode(mod, dst[:0], payload, len(vals), 0, true); err != nil {
				t.Fatalf("%s: %v", s, err)
			}
		})
		if avg != 0 {
			t.Errorf("%s: decode allocates %.1f times per block, want 0", s, avg)
		}
	}
}

// TestCompiledRunIsAllocFree pins the zero-alloc property of the compiled
// netlist's steady state: simulating blocks through a configured module
// must not allocate once its scratch has warmed up.
func TestCompiledRunIsAllocFree(t *testing.T) {
	requireAllocFree(t, compress.AllSchemes(), (*Module).decodeNetlist)
}

// TestDecodeIntoAllocFree pins the same property on the path serving takes:
// the fused kernels write into the caller's buffer and own no scratch.
func TestDecodeIntoAllocFree(t *testing.T) {
	schemes := compress.AllSchemes()
	for _, s := range schemes {
		if NewModuleFor(s).kernel == kernelNetlist {
			t.Fatalf("%s: not on the fast path", s)
		}
	}
	requireAllocFree(t, schemes, (*Module).DecodeInto)
}
