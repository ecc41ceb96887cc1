package decomp

import (
	"reflect"
	"testing"
	"time"

	"boss/internal/compress"
	"boss/internal/corpus"
	"boss/internal/index"
)

// corpusBlock is one posting block as the serving path decodes it: the
// payload holds n docIDs, delta-coded from first, then n tfs.
type corpusBlock struct {
	term    string
	b       int
	payload []byte
	n       int
	first   uint32
}

// blocksByScheme lists every block of every list of idx, by scheme.
func blocksByScheme(idx *index.Index) map[compress.Scheme][]corpusBlock {
	out := make(map[compress.Scheme][]corpusBlock)
	for _, term := range idx.Terms() {
		pl := idx.List(term)
		for b, meta := range pl.Blocks {
			out[pl.Scheme] = append(out[pl.Scheme], corpusBlock{
				term: term, b: b, payload: pl.Data[meta.Offset : meta.Offset+meta.Length],
				n: int(meta.Count), first: meta.FirstDoc,
			})
		}
	}
	return out
}

// walkIndex decodes every block of every list of idx three ways — DecodeInto
// (the fused kernel, which every built-in scheme has), the full netlist
// simulation, and the software codec followed by DeltaDecode — and demands
// the same docIDs, tfs and byte consumption from all three and the same
// cycle count from the two module paths. It logs one line per scheme: size,
// ratio, decode throughput of both module paths, cycles per block.
func walkIndex(t *testing.T, name string, idx *index.Index) {
	t.Helper()
	byScheme := blocksByScheme(idx)
	var fd, ft, rd, rt, sd, st []uint32
	for _, s := range compress.AllSchemes() {
		blocks := byScheme[s]
		if len(blocks) == 0 {
			continue
		}
		fast, ref, codec := NewModuleFor(s), NewModuleFor(s), compress.ForScheme(s)
		var values, size int
		var cycles int64
		var fastTime, netlistTime time.Duration
		for _, blk := range blocks {
			payload, n := blk.payload, blk.n

			t0 := time.Now()
			var fu1, fu2, fc1, fc2 int
			var err error
			if fd, fu1, fc1, err = fast.DecodeInto(fd[:0], payload, n, blk.first, true); err == nil {
				ft, fu2, fc2, err = fast.DecodeInto(ft[:0], payload[fu1:], n, 0, false)
			}
			t1 := time.Now()
			if err != nil {
				t.Fatalf("%s: list %q block %d: fast path: %v", name, blk.term, blk.b, err)
			}
			var ru1, ru2, rc1, rc2 int
			if rd, ru1, rc1, err = ref.decodeNetlist(rd[:0], payload, n, blk.first, true); err == nil {
				rt, ru2, rc2, err = ref.decodeNetlist(rt[:0], payload[ru1:], n, 0, false)
			}
			t2 := time.Now()
			if err != nil {
				t.Fatalf("%s: list %q block %d: netlist: %v", name, blk.term, blk.b, err)
			}
			sd, su1 := codec.Decode(sd[:0], payload, n)
			st, su2 := codec.Decode(st[:0], payload[su1:], n)
			compress.DeltaDecode(sd, blk.first)

			if !reflect.DeepEqual(fd, rd) || !reflect.DeepEqual(fd, sd) || !reflect.DeepEqual(ft, rt) || !reflect.DeepEqual(ft, st) {
				t.Fatalf("%s: list %q (%s) block %d: the three decoders disagree on values", name, blk.term, s, blk.b)
			}
			if fu1 != ru1 || fu1 != su1 || fu2 != ru2 || fu2 != su2 {
				t.Fatalf("%s: list %q (%s) block %d: bytes consumed fast %d+%d, netlist %d+%d, codec %d+%d",
					name, blk.term, s, blk.b, fu1, fu2, ru1, ru2, su1, su2)
			}
			if fc1 != rc1 || fc2 != rc2 {
				t.Fatalf("%s: list %q (%s) block %d: cycles fast %d+%d, netlist %d+%d",
					name, blk.term, s, blk.b, fc1, fc2, rc1, rc2)
			}
			values += 2 * n
			size += fu1 + fu2
			cycles += int64(fc1 + fc2)
			fastTime += t1.Sub(t0)
			netlistTime += t2.Sub(t1)
		}
		if fast.Cycles() != ref.Cycles() || fast.Cycles() != cycles {
			t.Errorf("%s: %s: module cycle counters fast %d, netlist %d, summed %d", name, s, fast.Cycles(), ref.Cycles(), cycles)
		}
		raw := float64(4 * values)
		t.Logf("%-7s %-6s %6d blocks %8d bytes  ratio %5.2f  fast %7.1f MB/s  netlist %7.1f MB/s  %6.1f cycles/block",
			name, s, len(blocks), size, compress.CompressionRatio(values, size),
			raw/fastTime.Seconds()/1e6, raw/netlistTime.Seconds()/1e6, float64(cycles)/float64(len(blocks)))
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
// six built-ins skip the simulation, and so does the Figure 8 accumulator
// with its wires renamed; the custom nibble scheme, any near miss of the
// accumulator, and any other program with a register, a non-constant valid,
// or an op between Input and Output never do.
func TestKernelSelection(t *testing.T) {
	for s, want := range map[compress.Scheme]kernelKind{
		compress.BP: kernelFixedWidth, compress.VB: kernelVB, compress.PFD: kernelPFD,
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
		{"Figure 8 with its wires renamed", "Extractor[1].use = 1\nRegInit(acc, 0, stop)\nstop := SHR(Input, 7)\nlow := AND(Input, 127)\nhigh := SHL(acc, 7)\nsum := ADD(low, high)\nacc := sum\nOutput := sum\nOutput.valid := SHR(Input, 7)", kernelVB},
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
	for i, src := range vbNearMisses {
		if src == ConfigText(compress.VB) {
			t.Fatalf("VB near miss %d is the built-in program", i)
		}
		if got := mustModule(t, src).kernel; got != kernelNetlist {
			t.Errorf("VB near miss %d: kernel %d, want the netlist", i, got)
		}
	}
}
