// Compressionlab: the Figure 3 workflow. Generates the paper's seven
// synthetic integer streams, compresses each with every scheme, prints the
// ratio matrix with the per-stream winner, and then demonstrates the
// programmable decompression module: the same hardware datapath is
// reconfigured — via the paper's Figure 8 configuration language — to decode
// every scheme, and its output is checked against the software codecs.
package main

import (
	"fmt"
	"log"
	"strings"

	"boss/internal/compress"
	"boss/internal/corpus"
	"boss/internal/decomp"
)

const streamLen = 100_000

func main() {
	schemes := []compress.Scheme{
		compress.BP, compress.VB, compress.PFD, compress.OptPFD,
		compress.S16, compress.S8b,
	}

	fmt.Println("compression ratio by stream (higher is better, * marks the winner):")
	fmt.Printf("%-16s", "stream")
	for _, s := range schemes {
		fmt.Printf("%9s", s)
	}
	fmt.Println()

	for _, kind := range corpus.AllStreamKinds() {
		stream := corpus.GenerateStream(kind, streamLen, 1)
		fmt.Printf("%-16s", kind)
		best, bestRatio := -1, 0.0
		ratios := make([]float64, len(schemes))
		for i, s := range schemes {
			if !compress.ForScheme(s).Supports(stream) {
				ratios[i] = -1
				continue
			}
			size := compress.EncodedSize(s, stream)
			ratios[i] = compress.CompressionRatio(len(stream), size)
			if ratios[i] > bestRatio {
				best, bestRatio = i, ratios[i]
			}
		}
		for i, r := range ratios {
			if r < 0 {
				fmt.Printf("%9s", "n/a")
				continue
			}
			mark := " "
			if i == best {
				mark = "*"
			}
			fmt.Printf("%8.2f%s", r, mark)
		}
		fmt.Println()
	}

	// The programmable decompression module: print the paper's Figure 8
	// configuration for VariableByte, then reconfigure one module per
	// scheme and decode a block through the 4-stage hardware datapath.
	fmt.Println("\nFigure 8 configuration file for VariableByte:")
	for _, line := range strings.Split(strings.TrimSpace(decomp.ConfigText(compress.VB)), "\n") {
		fmt.Println("   ", line)
	}

	fmt.Println("\nreconfiguring the module per scheme and decoding one block each:")
	deltas := corpus.GenerateStream(corpus.ZipfStream, 128, 9)
	for _, s := range schemes {
		codec := compress.ForScheme(s)
		if !codec.Supports(deltas) {
			fmt.Printf("  %-8s not applicable to this stream\n", s)
			continue
		}
		payload := codec.Encode(nil, deltas)
		mod := decomp.NewModuleFor(s)
		out, used, cycles, err := mod.DecodeInto(nil, payload, len(deltas), 0, false)
		if err != nil {
			log.Fatalf("%s: %v", s, err)
		}
		soft, _ := codec.Decode(nil, payload, len(deltas))
		for i := range soft {
			if out[i] != soft[i] {
				log.Fatalf("%s: hardware datapath diverged from software codec", s)
			}
		}
		fmt.Printf("  %-8s %4d bytes -> 128 values in %4d cycles (%.2f values/cycle), bit-exact\n",
			s, used, cycles, 128/float64(cycles))
	}
}
