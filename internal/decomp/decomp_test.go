package decomp

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"boss/internal/compress"
	"boss/internal/corpus"
	"boss/internal/index"
)

func TestVBNetlistMatchesFigure8(t *testing.T) {
	// Hand-run the paper's Figure 8 program on a known VB encoding.
	cfg := ConfigFor(compress.VB)
	// 300 encodes as [0x02, 0xAC] (MSG first, stop bit on the last byte).
	values, cycles, err := cfg.Netlist.Run([]uint64{0x02, 0xAC}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 1 || values[0] != 300 {
		t.Fatalf("netlist decoded %v, want [300]", values)
	}
	if cycles != 2 {
		t.Fatalf("cycles = %d, want 2 (one per byte)", cycles)
	}
}

func TestVBNetlistRegisterResets(t *testing.T) {
	cfg := ConfigFor(compress.VB)
	// Two consecutive values: 300 then 5. The register must reset between
	// them or the second value would inherit stale accumulator state.
	tokens := []uint64{0x02, 0xAC, 0x85}
	values, _, err := cfg.Netlist.Run(tokens, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(values, []uint64{300, 5}) {
		t.Fatalf("decoded %v, want [300 5]", values)
	}
}

func TestModuleDecodesAllSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, s := range compress.AllSchemes() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			codec := compress.ForScheme(s)
			mod := NewModuleFor(s)
			for trial := 0; trial < 30; trial++ {
				n := 1 + rng.Intn(128)
				values := make([]uint32, n)
				w := uint(rng.Intn(20)) + 1
				for i := range values {
					values[i] = rng.Uint32() & (1<<w - 1)
					if values[i] > codec.MaxValue() {
						values[i] = codec.MaxValue()
					}
				}
				payload := codec.Encode(nil, values)
				got, used, cycles, err := mod.DecodeInto(nil, payload, n, 0, false)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if !reflect.DeepEqual(got, values) {
					t.Fatalf("trial %d: module output differs from codec input\n got %v\nwant %v", trial, got, values)
				}
				if used != len(payload) {
					t.Fatalf("trial %d: consumed %d bytes, payload %d", trial, used, len(payload))
				}
				if cycles <= 0 {
					t.Fatalf("trial %d: nonpositive cycle count", trial)
				}
			}
		})
	}
}

func TestModuleDeltaStage(t *testing.T) {
	codec := compress.ForScheme(compress.BP)
	deltas := []uint32{0, 3, 1, 10}
	payload := codec.Encode(nil, deltas)
	mod := NewModuleFor(compress.BP)
	got, _, _, err := mod.DecodeInto(nil, payload, len(deltas), 100, true)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{100, 103, 104, 114}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delta stage output %v, want %v", got, want)
	}
}

func TestModuleMatchesCodecWithDelta(t *testing.T) {
	// End-to-end against the software codec on docID-style streams.
	rng := rand.New(rand.NewSource(17))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(128)
		base := uint32(r.Intn(1 << 20))
		deltas := make([]uint32, n)
		for i := range deltas {
			deltas[i] = uint32(r.Intn(1 << 12))
		}
		scheme := compress.AllSchemes()[r.Intn(6)]
		codec := compress.ForScheme(scheme)
		payload := codec.Encode(nil, deltas)

		// Software path.
		soft, _ := codec.Decode(nil, payload, n)
		softDocs := append([]uint32(nil), soft...)
		compress.DeltaDecode(softDocs, base)

		// Hardware path.
		mod := NewModuleFor(scheme)
		hard, _, _, err := mod.DecodeInto(nil, payload, n, base, true)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(hard, softDocs)
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestVBConsumptionIsExact(t *testing.T) {
	// When two VB streams are concatenated (docIDs then tfs, as the index
	// lays them out), consumption of the first must be exact so the second
	// can be located.
	codec := compress.ForScheme(compress.VB)
	a := []uint32{5, 300, 70000}
	b := []uint32{1, 2, 3}
	payload := codec.Encode(nil, a)
	aLen := len(payload)
	payload = codec.Encode(payload, b)

	mod := NewModuleFor(compress.VB)
	gotA, usedA, _, err := mod.DecodeInto(nil, payload, len(a), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if usedA != aLen {
		t.Fatalf("VB consumed %d bytes, want %d", usedA, aLen)
	}
	if !reflect.DeepEqual(gotA, a) {
		t.Fatalf("first stream = %v", gotA)
	}
	gotB, _, _, err := mod.DecodeInto(nil, payload[usedA:], len(b), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotB, b) {
		t.Fatalf("second stream = %v", gotB)
	}
}

func TestModuleStatistics(t *testing.T) {
	mod := NewModuleFor(compress.BP)
	codec := compress.ForScheme(compress.BP)
	payload := codec.Encode(nil, []uint32{1, 2, 3})
	mod.DecodeInto(nil, payload, 3, 0, false)
	mod.DecodeInto(nil, payload, 3, 0, false)
	if mod.Blocks() != 2 {
		t.Fatalf("blocks = %d", mod.Blocks())
	}
	if mod.Values() != 6 {
		t.Fatalf("values = %d", mod.Values())
	}
	if mod.Cycles() <= 0 {
		t.Fatal("cycles not accumulated")
	}
}

func TestPFDExceptionsPatchedByStage3(t *testing.T) {
	codec := compress.ForScheme(compress.OptPFD)
	values := make([]uint32, 128)
	for i := range values {
		values[i] = uint32(i % 7)
	}
	values[13] = 1 << 25 // force an exception
	values[99] = 1 << 22
	payload := codec.Encode(nil, values)
	mod := NewModuleFor(compress.OptPFD)
	got, _, _, err := mod.DecodeInto(nil, payload, len(values), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, values) {
		t.Fatal("exception values not patched correctly")
	}
}

func TestParseConfigErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"empty", ""},
		{"no extractor", "Output := Input\nOutput.valid := 1\nUseDelta = 1"},
		{"two extractors", "Extractor[0].use = 1\nExtractor[1].use = 1\nOutput := Input\nOutput.valid := 1"},
		{"selector without table", "Extractor[2].use = 1\nOutput := Input\nOutput.valid := 1"},
		{"bad op", "Extractor[1].use = 1\nw := FROB(Input, 1)\nOutput := w\nOutput.valid := 1"},
		{"bad index", "Extractor[9].use = 1\nOutput := Input\nOutput.valid := 1"},
		{"unknown param", "Extractor[1].use = 1\nOutput := Input\nOutput.valid := 1\nBogus = 1"},
		{"bad literal", "Extractor[1].use = 1\nw := AND(Input, 0xZZ)\nOutput := w\nOutput.valid := 1"},
		{"mux arity", "Extractor[1].use = 1\nw := MUX(Input, 1)\nOutput := w\nOutput.valid := 1"},
		{"unparsable", "Extractor[1].use = 1\n???\nOutput := Input\nOutput.valid := 1"},
		{"empty netlist", "Extractor[1].use = 1\nUseDelta = 1"},
	}
	for _, tc := range cases {
		if _, err := ParseConfig(tc.src); err == nil {
			t.Errorf("%s: ParseConfig accepted invalid config", tc.name)
		}
	}
}

func TestParseConfigCommentsAndChainedAssign(t *testing.T) {
	cfg, err := ParseConfig(`
// a comment
# another comment style
Extractor[1].use = 1   // trailing comment
Output := Input
Output.valid := 1
ExceptionValue = ExceptionIndex = 0
UseDelta = 1
`)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Extractor != ExtractByte || !cfg.UseDelta || cfg.UseExceptions {
		t.Fatalf("parsed config = %+v", cfg)
	}
}

func TestNetlistUndefinedWire(t *testing.T) {
	cfg, err := ParseConfig(`
Extractor[1].use = 1
Output := nonexistent
Output.valid := 1
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cfg.Netlist.Run([]uint64{1}, -1); err == nil {
		t.Fatal("reading an unassigned wire should error")
	}
}

func TestNetlistMux(t *testing.T) {
	cfg, err := ParseConfig(`
Extractor[1].use = 1
cond := SHR(Input, 7)
low := AND(Input, 0x7F)
Output := MUX(cond, low, Input)
Output.valid := 1
`)
	if err != nil {
		t.Fatal(err)
	}
	values, _, err := cfg.Netlist.Run([]uint64{0x85, 0x05}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(values, []uint64{0x05, 0x05}) {
		t.Fatalf("mux output = %v", values)
	}
}

func TestConfigTextParsesForAllSchemes(t *testing.T) {
	for _, s := range compress.AllSchemes() {
		text := ConfigText(s)
		if !strings.Contains(text, "Extractor[") {
			t.Errorf("%s config missing extractor section", s)
		}
		if _, err := ParseConfig(text); err != nil {
			t.Errorf("%s config does not parse: %v", s, err)
		}
	}
}

func TestDecodeErrorsOnTruncatedPayload(t *testing.T) {
	codec := compress.ForScheme(compress.BP)
	payload := codec.Encode(nil, []uint32{1000, 2000, 3000})
	mod := NewModuleFor(compress.BP)
	if _, _, _, err := mod.DecodeInto(nil, payload[:1], 3, 0, false); err == nil {
		t.Fatal("truncated BP payload should error")
	}
	for _, s := range []compress.Scheme{compress.S16, compress.S8b, compress.OptPFD} {
		mod := NewModuleFor(s)
		if _, _, _, err := mod.DecodeInto(nil, []byte{1}, 10, 0, false); err == nil {
			t.Errorf("%s: truncated payload should error", s)
		}
	}
	// VB has no framing to refuse: the byte stream simply ends, and the
	// netlist's value-count check words it, counting whole values only.
	vb := compress.ForScheme(compress.VB).Encode(nil, []uint32{300, 5}) // 0x02 0xAC 0x85
	for _, tc := range []struct {
		name    string
		payload []byte
		n       int
		want    string
	}{
		{"ends mid-value", vb[:1], 1, "decomp: produced 0 values, want 1"},
		{"ends mid-value after a whole one", append(vb[:2:2], 0x01), 2, "decomp: produced 1 values, want 2"},
		{"ends after k < n values", vb, 3, "decomp: produced 2 values, want 3"},
	} {
		mod := NewModuleFor(compress.VB)
		if _, _, _, err := mod.DecodeInto(nil, tc.payload, tc.n, 0, true); err == nil || err.Error() != tc.want {
			t.Errorf("VB %s: err = %v, want %q", tc.name, err, tc.want)
		}
		if mod.Blocks() != 0 || mod.Cycles() != 0 {
			t.Errorf("VB %s: a refused block counted (%d blocks, %d cycles)", tc.name, mod.Blocks(), mod.Cycles())
		}
	}
}

// BenchmarkDecompModule times the steady-state decode path per scheme —
// one 128-value block appended into caller scratch — through DecodeInto (the
// fused kernel every built-in scheme has) and, as <scheme>/netlist, through
// the full four-stage simulation that remains the reference. Run with
// -benchmem: both are 0 allocs/op.
//
// A uniform block hides what the index really holds — short VB lists, and
// Simple16 words whose selector mix follows the d-gaps — so <scheme>/corpus
// and <scheme>/corpus/netlist decode, per op, every block of that scheme in
// the bench corpus's serving index (ClueWebLike(0.25), hybrid) as a cache
// miss does, docIDs then tfs, and report ns/block.
func BenchmarkDecompModule(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	values := make([]uint32, 128)
	for i := range values {
		values[i] = uint32(rng.Intn(1024))
	}
	for _, s := range compress.AllSchemes() {
		codec := compress.ForScheme(s)
		payload := codec.Encode(nil, values)
		mod := NewModuleFor(s)
		dst := make([]uint32, 0, len(values))
		run := func(decode decodeFunc) func(b *testing.B) {
			return func(b *testing.B) {
				b.SetBytes(int64(4 * len(values)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, _, err := decode(mod, dst[:0], payload, len(values), 0, true); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		b.Run(s.String(), run((*Module).DecodeInto))
		b.Run(s.String()+"/netlist", run((*Module).decodeNetlist))
		b.Run(s.String()+"/corpus", runCorpus(s, (*Module).DecodeInto))
		b.Run(s.String()+"/corpus/netlist", runCorpus(s, (*Module).decodeNetlist))
	}
}

// benchCorpus is the bench corpus's serving index split into blocks by
// scheme, built on first use.
var benchCorpus = sync.OnceValue(func() map[compress.Scheme][]corpusBlock {
	c := corpus.Generate(corpus.ClueWebLike(0.25))
	return blocksByScheme(index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid}))
})

// runCorpus is a corpus arm of BenchmarkDecompModule: one op decodes both
// streams of every scheme-s block of benchCorpus.
func runCorpus(s compress.Scheme, decode decodeFunc) func(b *testing.B) {
	return func(b *testing.B) {
		blocks := benchCorpus()[s]
		if len(blocks) == 0 {
			b.Skipf("no %s blocks in the corpus", s)
		}
		mod := NewModuleFor(s)
		var docs, tfs []uint32
		raw := 0
		for _, blk := range blocks {
			raw += 8 * blk.n
		}
		b.SetBytes(int64(raw))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, blk := range blocks {
				var used int
				var err error
				if docs, used, _, err = decode(mod, docs[:0], blk.payload, blk.n, blk.first, true); err == nil {
					tfs, _, _, err = decode(mod, tfs[:0], blk.payload[used:], blk.n, 0, false)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(blocks)), "ns/block")
		b.ReportMetric(float64(len(blocks)), "blocks")
	}
}
