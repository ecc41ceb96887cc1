// Command indexstat inspects an inverted index: footprint, the hybrid
// compression choice distribution, and per-scheme what-if sizes. It either
// generates a synthetic corpus or reads an index file produced with
// boss.Index.WriteTo.
//
// Usage:
//
//	indexstat -corpus ccnews -scale 0.05
//	indexstat -file my.idx
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"slices"

	"boss/internal/compress"
	"boss/internal/corpus"
	"boss/internal/index"
)

func main() {
	var (
		corpusName = flag.String("corpus", "clueweb", "synthetic corpus: clueweb or ccnews")
		scale      = flag.Float64("scale", 0.02, "corpus scale in (0,1]")
		file       = flag.String("file", "", "read a serialized index instead of generating one")
		whatIf     = flag.Bool("whatif", false, "also build the corpus with each single scheme (slow)")
	)
	flag.Parse()

	var idx *index.Index
	var c *corpus.Corpus
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "indexstat: %v\n", err)
			os.Exit(1)
		}
		idx, err = index.Read(f)
		closeErr := f.Close()
		if err == nil {
			err = closeErr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "indexstat: %v\n", err)
			os.Exit(1)
		}
	} else {
		spec, err := corpus.ByName(*corpusName, *scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "indexstat: %v\n", err)
			os.Exit(1)
		}
		c = corpus.Generate(spec)
		idx = index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid})
	}

	st := idx.ComputeStats()
	fmt.Printf("documents:        %d\n", st.NumDocs)
	fmt.Printf("terms:            %d\n", st.NumTerms)
	fmt.Printf("postings:         %d\n", st.TotalPostings)
	fmt.Printf("payload bytes:    %d (%.2f B/posting)\n", st.PayloadBytes,
		float64(st.PayloadBytes)/float64(max64(st.TotalPostings, 1)))
	fmt.Printf("metadata bytes:   %d (19 B/block)\n", st.MetadataBytes)
	fmt.Printf("norm bytes:       %d (4 B/doc)\n", st.NormBytes)
	fmt.Printf("compression:      %.2fx over raw 8 B postings\n", st.CompressionRatio())

	fmt.Printf("\nhybrid scheme choice by posting list:\n")
	hist := idx.SchemeHistogram()
	type kv struct {
		s compress.Scheme
		n int
	}
	var kvs []kv
	for s, n := range hist {
		kvs = append(kvs, kv{s, n})
	}
	// By count, most lists first; tied counts by scheme, so the output does
	// not follow map order.
	slices.SortFunc(kvs, func(a, b kv) int { return cmp.Or(cmp.Compare(b.n, a.n), cmp.Compare(a.s, b.s)) })
	for _, e := range kvs {
		fmt.Printf("  %-8s %7d lists (%.1f%%)\n", e.s, e.n, 100*float64(e.n)/float64(st.NumTerms))
	}

	if *whatIf && c != nil {
		fmt.Printf("\nwhat-if payload sizes with a single scheme:\n")
		for _, s := range compress.AllSchemes() {
			if s == compress.S16 {
				// S16 cannot represent every delta stream.
				continue
			}
			alt := index.Build(c, index.BuildOptions{Scheme: s}).ComputeStats()
			fmt.Printf("  %-8s %12d bytes (%+.1f%% vs hybrid)\n", s, alt.PayloadBytes,
				100*float64(alt.PayloadBytes-st.PayloadBytes)/float64(st.PayloadBytes))
		}
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
