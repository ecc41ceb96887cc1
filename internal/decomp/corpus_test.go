package decomp

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"boss/internal/compress"
	"boss/internal/corpus"
	"boss/internal/index"
)

// schemeTally is what walkIndex accumulates per scheme.
type schemeTally struct {
	blocks, values, bytes int
	cycles                int64
	fast, netlist         time.Duration
}

// walkIndex decodes every block of every list of idx three ways — DecodeInto
// (the fused kernel where the scheme's program is the identity), the full
// netlist simulation, and the software codec followed by DeltaDecode — and
// demands the same docIDs, tfs and byte consumption from all three and the
// same cycle count from the two module paths. It logs one line per scheme:
// size, ratio, decode throughput of both module paths, cycles per block.
func walkIndex(t *testing.T, name string, idx *index.Index) {
	t.Helper()
	type pair struct{ fast, ref *Module }
	mods := make(map[compress.Scheme]pair)
	tallies := make(map[compress.Scheme]*schemeTally)
	var fd, ft, rd, rt, sd, st []uint32
	for _, term := range idx.Terms() {
		pl := idx.List(term)
		m, ok := mods[pl.Scheme]
		if !ok {
			m = pair{NewModuleFor(pl.Scheme), NewModuleFor(pl.Scheme)}
			mods[pl.Scheme] = m
			tallies[pl.Scheme] = &schemeTally{}
		}
		tally := tallies[pl.Scheme]
		for b, meta := range pl.Blocks {
			payload := pl.Data[meta.Offset : meta.Offset+meta.Length]
			n := int(meta.Count)

			t0 := time.Now()
			var fu1, fu2, fc1, fc2 int
			var err error
			if fd, fu1, fc1, err = m.fast.DecodeInto(fd[:0], payload, n, meta.FirstDoc, true); err == nil {
				ft, fu2, fc2, err = m.fast.DecodeInto(ft[:0], payload[fu1:], n, 0, false)
			}
			t1 := time.Now()
			if err != nil {
				t.Fatalf("%s: list %q block %d: fast path: %v", name, term, b, err)
			}
			var ru1, ru2, rc1, rc2 int
			if rd, ru1, rc1, err = m.ref.decodeNetlist(rd[:0], payload, n, meta.FirstDoc, true); err == nil {
				rt, ru2, rc2, err = m.ref.decodeNetlist(rt[:0], payload[ru1:], n, 0, false)
			}
			t2 := time.Now()
			if err != nil {
				t.Fatalf("%s: list %q block %d: netlist: %v", name, term, b, err)
			}
			codec := pl.Codec()
			sd, su1 := codec.Decode(sd[:0], payload, n)
			st, su2 := codec.Decode(st[:0], payload[su1:], n)
			compress.DeltaDecode(sd, meta.FirstDoc)

			if !reflect.DeepEqual(fd, rd) || !reflect.DeepEqual(fd, sd) || !reflect.DeepEqual(ft, rt) || !reflect.DeepEqual(ft, st) {
				t.Fatalf("%s: list %q (%s) block %d: the three decoders disagree on values", name, term, pl.Scheme, b)
			}
			if fu1 != ru1 || fu1 != su1 || fu2 != ru2 || fu2 != su2 {
				t.Fatalf("%s: list %q (%s) block %d: bytes consumed fast %d+%d, netlist %d+%d, codec %d+%d",
					name, term, pl.Scheme, b, fu1, fu2, ru1, ru2, su1, su2)
			}
			if fc1 != rc1 || fc2 != rc2 {
				t.Fatalf("%s: list %q (%s) block %d: cycles fast %d+%d, netlist %d+%d",
					name, term, pl.Scheme, b, fc1, fc2, rc1, rc2)
			}
			tally.blocks++
			tally.values += 2 * n
			tally.bytes += fu1 + fu2
			tally.cycles += int64(fc1 + fc2)
			tally.fast += t1.Sub(t0)
			tally.netlist += t2.Sub(t1)
		}
	}
	schemes := make([]compress.Scheme, 0, len(tallies))
	for s, m := range mods {
		if m.fast.Cycles() != m.ref.Cycles() || m.fast.Cycles() != tallies[s].cycles {
			t.Errorf("%s: %s: module cycle counters fast %d, netlist %d, summed %d", name, s, m.fast.Cycles(), m.ref.Cycles(), tallies[s].cycles)
		}
		schemes = append(schemes, s)
	}
	sort.Slice(schemes, func(i, j int) bool { return schemes[i] < schemes[j] })
	for _, s := range schemes {
		ty := tallies[s]
		raw := float64(4 * ty.values)
		t.Logf("%-7s %-6s %6d blocks %8d bytes  ratio %5.2f  fast %7.1f MB/s  netlist %7.1f MB/s  %6.1f cycles/block",
			name, s, ty.blocks, ty.bytes, compress.CompressionRatio(ty.values, ty.bytes),
			raw/ty.fast.Seconds()/1e6, raw/ty.netlist.Seconds()/1e6, float64(ty.cycles)/float64(ty.blocks))
	}
}

// TestDecodeOnCorpus runs walkIndex over a generated hybrid index (the
// serving layout: per-list best scheme) and over one index per single
// scheme, so every scheme sees every list shape the generator produces.
func TestDecodeOnCorpus(t *testing.T) {
	c := corpus.Generate(corpus.CCNewsLike(0.05))
	walkIndex(t, "hybrid", index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid}))
	for _, s := range compress.AllSchemes() {
		walkIndex(t, s.String(), index.Build(c, index.BuildOptions{Scheme: s}))
	}
}

// TestKernelSelection pins the elision rule's soundness at its edges: the
// five field-structured built-ins skip the simulation; VB, the custom nibble
// scheme, and any program with a register, a non-constant valid, or an op
// between Input and Output never do.
func TestKernelSelection(t *testing.T) {
	for s, want := range map[compress.Scheme]kernelKind{
		compress.BP: kernelFixedWidth, compress.VB: kernelNetlist, compress.PFD: kernelPFD,
		compress.OptPFD: kernelPFD, compress.S16: kernelS16, compress.S8b: kernelS8b,
	} {
		if got := NewModuleFor(s).kernel; got != want {
			t.Errorf("%s: kernel %d, want %d", s, got, want)
		}
	}
	const bp = "Extractor[0].use = 1\nExtractor[0].headerLength = 8\n"
	for _, tc := range []struct {
		name, src string
		want      kernelKind
	}{
		{"nibble scheme", nibbleNetlist, kernelNetlist},
		{"passthrough", bp + "Output := Input\nOutput.valid := 1", kernelFixedWidth},
		{"passthrough on the byte extractor", "Extractor[1].use = 1\nOutput := Input\nOutput.valid := 1", kernelNetlist},
		{"passthrough with dead wires", bp + "junk := ADD(Input, 1)\nOutput := junk\nOutput := Input\nOutput.valid := 3", kernelFixedWidth},
		{"unused register", bp + "RegInit(R, 0, never)\nOutput := Input\nOutput.valid := 1", kernelNetlist},
		{"valid from the input", bp + "Output := Input\nOutput.valid := Input", kernelNetlist},
		{"valid constant zero", bp + "Output := Input\nOutput.valid := 0", kernelNetlist},
		{"valid never driven", bp + "Output := Input", kernelNetlist},
		{"op that computes the identity", bp + "Output := OR(Input, 0)\nOutput.valid := 1", kernelNetlist},
		{"copy through a wire", bp + "w := Input\nOutput := w\nOutput.valid := 1", kernelNetlist},
		{"overwritten by an op", bp + "Output := Input\nOutput := ADD(Input, 1)\nOutput.valid := 1", kernelNetlist},
		{"undefined wire elsewhere", bp + "Output := Input\nOutput.valid := 1\nx := AND(y, 1)", kernelNetlist},
		{"PFD framing without stage 3", "Extractor[0].use = 1\nExtractor[0].pfdHeader = 1\nOutput := Input\nOutput.valid := 1", kernelNetlist},
	} {
		if got := mustModule(t, tc.src).kernel; got != tc.want {
			t.Errorf("%s: kernel %d, want %d", tc.name, got, tc.want)
		}
	}
}
