package harness

import (
	"context"
	"fmt"
	"runtime"

	"boss/internal/compress"
	"boss/internal/core"
	"boss/internal/corpus"
	"boss/internal/index"
	"boss/internal/topk"
)

// sparseZipfS is the term-popularity exponent of the sparse trace: queries
// hit terms with the corpus's own Zipf frequency, which is what makes the
// MaxScore skip opportunity representative rather than adversarial.
const sparseZipfS = 1.07

// sparseK is the sparse trace's top-k depth. The paper-family figures run
// deep heaps; sparse-dot serving is a k=10 workload (first results page),
// and shallow heaps are exactly where MaxScore's threshold bites.
const sparseK = 10

// SparseReport is the -sparse benchmark: the Q7 impact-ordered family on
// an impact-quantized index, MaxScore-pruned versus exhaustive. The
// posting counts are simulated charges and deterministic in (corpus,
// seed); the QPS fields are wall-clock.
type SparseReport struct {
	Schema     string  `json:"schema"`
	PR         int     `json:"pr"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Corpus     string  `json:"corpus"`
	NumDocs    int     `json:"num_docs"`
	Queries    int     `json:"queries"`
	K          int     `json:"k"`
	Seed       int64   `json:"seed"`
	ZipfS      float64 `json:"zipf_s"`
	// ExhaustivePostings / PrunedPostings are total postings evaluated
	// (decoded from fetched blocks) across the trace without and with
	// MaxScore pruning.
	ExhaustivePostings int64 `json:"exhaustive_postings"`
	PrunedPostings     int64 `json:"pruned_postings"`
	// ReductionPct is the pruned saving: 100*(1 - pruned/exhaustive).
	ReductionPct float64 `json:"reduction_pct"`
	// BlocksSkipped counts blocks the pruned run passed over on per-block
	// max-impact alone, never fetching them.
	BlocksSkipped int64 `json:"blocks_skipped"`
	// ByteIdentical reports whether every pruned top-k matched its
	// exhaustive twin exactly (docIDs and scores).
	ByteIdentical bool `json:"byte_identical"`
	// SparseQPS is wall-clock Q7 throughput with pruning on.
	SparseQPS float64 `json:"sparse_qps"`
	// ConjunctiveQPS is the Q4 (4-term AND) baseline on the same index,
	// for scale: how the new family's cost compares to the boolean one.
	ConjunctiveQPS float64 `json:"conjunctive_qps"`
	Created        string  `json:"created,omitempty"`
}

// sameTopK reports exact equality of two result lists.
func sameTopK(a, b []topk.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Sparse measures the Q7 sparse-dot family: a seeded Zipfian trace at
// k=10 run exhaustively and MaxScore-pruned on an impact-quantized index.
// The pruned pass must return byte-identical top-k lists while evaluating
// fewer postings; both counts are deterministic in (corpus, seed).
func Sparse(ctx *Context) *SparseReport {
	spec := corpus.ClueWebLike(ctx.Cfg.Scale)
	c := corpus.Generate(spec)
	// The figure Setup's indexes stay impact-free (their serialized bytes
	// are pinned by the archived figures); the sparse bench builds its
	// own hybrid index with quantized impacts in the posting payloads.
	idx := index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid, Impacts: true})

	n := 16 * ctx.Cfg.PerType
	qs := corpus.SampleZipfQueries(c, corpus.Q7, n, sparseZipfS, ctx.Cfg.Seed)

	rep := &SparseReport{
		Schema:     BenchSchema,
		PR:         BenchPR,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Corpus:     spec.Name,
		NumDocs:    spec.NumDocs,
		Queries:    len(qs),
		K:          sparseK,
		Seed:       ctx.Cfg.Seed,
		ZipfS:      sparseZipfS,
	}

	pruned := core.New(idx, core.DefaultOptions())
	exh := core.New(idx, core.ExhaustiveOptions())
	rep.ByteIdentical = true
	for _, q := range qs {
		po, err := pruned.RunSparse(q.Terms, sparseK)
		if err != nil {
			panic(err)
		}
		eo, err := exh.RunSparse(q.Terms, sparseK)
		if err != nil {
			panic(err)
		}
		rep.PrunedPostings += po.M.PostingsDecoded
		rep.ExhaustivePostings += eo.M.PostingsDecoded
		rep.BlocksSkipped += po.M.BlocksSkipped
		if !sameTopK(po.TopK, eo.TopK) {
			rep.ByteIdentical = false
		}
	}
	if rep.ExhaustivePostings > 0 {
		rep.ReductionPct = 100 * (1 - float64(rep.PrunedPostings)/float64(rep.ExhaustivePostings))
	}

	// Wall-clock throughput of the pruned sparse family, with the Q4
	// conjunctive family on the same impact-carrying index for scale.
	rep.SparseQPS = measureQPS(len(qs), func() {
		for _, q := range qs {
			if _, err := pruned.RunSparse(q.Terms, sparseK); err != nil {
				panic(err)
			}
		}
	})
	conj := corpus.SampleZipfQueries(c, corpus.Q4, n, sparseZipfS, ctx.Cfg.Seed)
	dnfs := make([][][]string, len(conj))
	for i, q := range conj {
		dnfs[i] = [][]string{q.Terms}
	}
	rep.ConjunctiveQPS = measureQPS(len(conj), func() {
		for _, d := range dnfs {
			if _, err := pruned.RunDNFCtx(context.Background(), d, sparseK); err != nil {
				panic(err)
			}
		}
	})
	return rep
}

// Table renders the report in the harness's table format so -sparse
// composes with the text output path too.
func (r *SparseReport) Table() *Table {
	ident := "IDENTICAL"
	if !r.ByteIdentical {
		ident = "DIVERGED"
	}
	return &Table{
		ID: "sparse",
		Title: fmt.Sprintf("Sparse-dot (Q7) MaxScore pruning on %s (%d docs, %d queries, k=%d, zipf %.2f)",
			r.Corpus, r.NumDocs, r.Queries, r.K, r.ZipfS),
		Header: []string{"metric", "exhaustive", "pruned", "delta"},
		Rows: [][]string{
			{"postings evaluated", fmt.Sprintf("%d", r.ExhaustivePostings), fmt.Sprintf("%d", r.PrunedPostings),
				fmt.Sprintf("-%.1f%%", r.ReductionPct)},
			{"blocks skipped unfetched", "0", fmt.Sprintf("%d", r.BlocksSkipped), "-"},
			{"top-k vs exhaustive", "-", ident, "-"},
			{"Q7 QPS (pruned)", "-", f0(r.SparseQPS), "-"},
			{"Q4 AND QPS (baseline)", "-", f0(r.ConjunctiveQPS), "-"},
		},
		Notes: []string{
			"posting counts are simulated charges, deterministic in (corpus, seed)",
			"pruned top-k must be byte-identical: strict-< pruning never drops a threshold tie",
			"QPS rows are wall-clock host throughput (single accelerator, serial)",
		},
	}
}
