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
	"io"
	"os"
	"slices"
	"strings"

	"boss/internal/compress"
	"boss/internal/corpus"
	"boss/internal/index"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "indexstat: %v\n", err)
		os.Exit(1)
	}
}

// run parses args and prints the report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("indexstat", flag.ExitOnError)
	var (
		corpusName = fs.String("corpus", "clueweb", "synthetic corpus: clueweb or ccnews")
		scale      = fs.Float64("scale", 0.02, "corpus scale in (0,1]")
		file       = fs.String("file", "", "read a serialized index instead of generating one")
		whatIf     = fs.Bool("whatif", false, "also build the corpus with each single scheme (slow)")
	)
	_ = fs.Parse(args) // ExitOnError: Parse exits on a bad flag

	var idx *index.Index
	var c *corpus.Corpus
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		idx, err = index.Read(f)
		if closeErr := f.Close(); err == nil {
			err = closeErr
		}
		if err != nil {
			return err
		}
	} else {
		spec, err := corpus.ByName(*corpusName, *scale)
		if err != nil {
			return err
		}
		c = corpus.Generate(spec)
		idx = index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid})
	}

	var b strings.Builder
	st := idx.ComputeStats()
	fmt.Fprintf(&b, "documents:        %d\n", st.NumDocs)
	fmt.Fprintf(&b, "terms:            %d\n", st.NumTerms)
	fmt.Fprintf(&b, "postings:         %d\n", st.TotalPostings)
	fmt.Fprintf(&b, "payload bytes:    %d (%.2f B/posting)\n", st.PayloadBytes,
		float64(st.PayloadBytes)/float64(max64(st.TotalPostings, 1)))
	fmt.Fprintf(&b, "metadata bytes:   %d (19 B/block)\n", st.MetadataBytes)
	fmt.Fprintf(&b, "norm bytes:       %d (4 B/doc)\n", st.NormBytes)
	fmt.Fprintf(&b, "compression:      %.2fx over raw 8 B postings\n", st.CompressionRatio())

	fmt.Fprintf(&b, "\nhybrid scheme choice by posting list:\n")
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
		fmt.Fprintf(&b, "  %-8s %7d lists (%.1f%%)\n", e.s, e.n, 100*float64(e.n)/float64(st.NumTerms))
	}

	if *whatIf && c != nil {
		fmt.Fprintf(&b, "\nwhat-if payload sizes with a single scheme:\n")
		for _, s := range compress.AllSchemes() {
			if s == compress.S16 {
				// S16 cannot represent every delta stream.
				continue
			}
			alt := index.Build(c, index.BuildOptions{Scheme: s}).ComputeStats()
			fmt.Fprintf(&b, "  %-8s %12d bytes (%+.1f%% vs hybrid)\n", s, alt.PayloadBytes,
				100*float64(alt.PayloadBytes-st.PayloadBytes)/float64(st.PayloadBytes))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
