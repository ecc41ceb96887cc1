// Package harness regenerates every table and figure of the paper's
// evaluation (plus the Figure 3 compression study and several extra
// ablations) from the models in this repository. Each experiment produces
// text tables whose rows/series correspond to the paper's; cmd/bossbench is
// the CLI front end.
package harness

import (
	"fmt"
	"math"
	"strings"

	"boss/internal/compress"
	"boss/internal/core"
	"boss/internal/corpus"
	"boss/internal/engine"
	"boss/internal/iiu"
	"boss/internal/index"
	"boss/internal/mem"
	"boss/internal/perf"
	"boss/internal/query"
)

// Config scopes an experiment run.
type Config struct {
	// Scale shrinks the corpora relative to the paper's full datasets
	// (which do not fit a laptop-scale run); posting-list statistics keep
	// their shape.
	Scale float64
	// PerType is the number of queries sampled per Table II type (the
	// paper uses 100).
	PerType int
	// K is the top-k depth (the paper defaults to 1000).
	K int
	// Seed drives all workload sampling.
	Seed int64
}

// QuickConfig runs in seconds; used by tests and the default CLI mode.
func QuickConfig() Config {
	return Config{Scale: 0.02, PerType: 6, K: 100, Seed: 42}
}

// FullConfig is the larger sweep behind EXPERIMENTS.md.
func FullConfig() Config {
	return Config{Scale: 0.06, PerType: 15, K: 400, Seed: 42}
}

// System names the engines under comparison.
type System string

// The five systems the figures compare.
const (
	Lucene    System = "Lucene"
	IIU       System = "IIU"
	BOSS      System = "BOSS"
	BOSSExh   System = "BOSS-exhaustive"
	BOSSBlock System = "BOSS-block-only"
)

// CoreCounts is the paper's multi-core sweep.
var CoreCounts = []int{1, 2, 4, 8}

// Setup holds one corpus, the per-system indexes, and a metrics cache.
type Setup struct {
	Cfg      Config
	Spec     corpus.Spec
	Corpus   *corpus.Corpus
	Hybrid   *index.Index // hybrid-compressed index (Lucene + BOSS)
	Fixed    *index.Index // single-scheme index (IIU's hardware-tied codec)
	Workload map[corpus.QueryType][]corpus.Query

	cache map[System]map[corpus.QueryType]*perf.Metrics
}

// NewSetup generates the corpus, builds both indexes and samples the
// workload.
func NewSetup(spec corpus.Spec, cfg Config) *Setup {
	c := corpus.Generate(spec)
	return &Setup{
		Cfg:      cfg,
		Spec:     spec,
		Corpus:   c,
		Hybrid:   index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid}),
		Fixed:    index.Build(c, index.BuildOptions{Scheme: compress.BP}),
		Workload: corpus.SampleWorkload(c, cfg.PerType, cfg.Seed),
		cache:    make(map[System]map[corpus.QueryType]*perf.Metrics),
	}
}

// runOne executes a single query on a system and returns its metrics.
func (s *Setup) runOne(sys System, q corpus.Query) *perf.Metrics {
	node := query.MustParse(q.Expr)
	switch sys {
	case Lucene:
		res, err := engine.New(s.Hybrid).Run(node, s.Cfg.K)
		if err != nil {
			panic(err)
		}
		return res.M
	case IIU:
		res, err := iiu.New(s.Fixed).Run(node, s.Cfg.K)
		if err != nil {
			panic(err)
		}
		return res.M
	case BOSS, BOSSExh, BOSSBlock:
		opts := core.DefaultOptions()
		if sys == BOSSExh {
			opts = core.ExhaustiveOptions()
		}
		if sys == BOSSBlock {
			opts = core.BlockOnlyOptions()
		}
		res, err := core.New(s.Hybrid, opts).Exec(nil, node.Plan(), s.Cfg.K)
		if err != nil {
			panic(err)
		}
		return res.M
	default:
		panic("harness: unknown system " + string(sys))
	}
}

// RunQuery executes one query on a system, returning its work metrics.
func (s *Setup) RunQuery(sys System, q corpus.Query) *perf.Metrics {
	return s.runOne(sys, q)
}

// Avg returns the average per-query metrics of a system on a query type,
// computed once and cached.
func (s *Setup) Avg(sys System, qt corpus.QueryType) *perf.Metrics {
	byType, ok := s.cache[sys]
	if !ok {
		byType = make(map[corpus.QueryType]*perf.Metrics)
		s.cache[sys] = byType
	}
	if m, ok := byType[qt]; ok {
		return m
	}
	sum := perf.NewMetrics()
	queries := s.Workload[qt]
	for _, q := range queries {
		sum.Merge(s.runOne(sys, q))
	}
	sum.Scale(int64(len(queries)))
	byType[qt] = sum
	return sum
}

// deviceFor maps a system to its memory-device configuration in a given
// scenario ("scm" or "dram"): the accelerators sit on the 4-channel pool
// node, the software baseline on the 6-channel host system.
func deviceFor(sys System, scenario string) mem.Config {
	switch {
	case sys == Lucene && scenario == "scm":
		return mem.HostSCM()
	case sys == Lucene && scenario == "dram":
		return mem.HostDRAM()
	case scenario == "dram":
		return mem.DRAM()
	default:
		return mem.SCM()
	}
}

// QPS computes a system's query throughput at a core count under a
// scenario. The software baseline's memory is direct-attached (no shared
// link ceiling); the accelerators ship results over the pool interconnect.
func (s *Setup) QPS(sys System, qt corpus.QueryType, cores int, scenario string) float64 {
	m := s.Avg(sys, qt)
	link := mem.DefaultLinkGBs
	if sys == Lucene {
		link = 0
	}
	return m.Throughput(cores, deviceFor(sys, scenario), link)
}

// Speedup reports QPS(sys, cores) / QPS(Lucene, 8) in a scenario — the
// normalization every throughput figure uses.
func (s *Setup) Speedup(sys System, qt corpus.QueryType, cores int, scenario string) float64 {
	base := s.QPS(Lucene, qt, 8, "scm")
	if base == 0 {
		return 0
	}
	return s.QPS(sys, qt, cores, scenario) / base
}

// Bandwidth reports the device bandwidth (GB/s) a system consumes at a
// core count (Figures 11/12).
func (s *Setup) Bandwidth(sys System, qt corpus.QueryType, cores int) float64 {
	m := s.Avg(sys, qt)
	return m.Bandwidth(s.QPS(sys, qt, cores, "scm"))
}

// geomean of positive values (zeroes skipped).
func geomean(vals []float64) float64 {
	var sum float64
	n := 0
	for _, v := range vals {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Table is a rendered experiment output.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	out := fmt.Sprintf("== %s: %s ==\n", t.ID, t.Title)
	line := ""
	for i, h := range t.Header {
		line += pad(h, widths[i]) + "  "
	}
	out += line + "\n"
	for _, row := range t.Rows {
		line = ""
		for i, cell := range row {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			line += pad(cell, w) + "  "
		}
		out += line + "\n"
	}
	for _, n := range t.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// CSV renders the table as RFC-4180-ish CSV (quotes only where needed),
// for piping into plotting tools.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

func pad(s string, w int) string {
	for len(s) < w {
		s += " "
	}
	return s
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// Context carries lazily-built setups shared across experiments.
type Context struct {
	Cfg Config
	cw  *Setup
	cc  *Setup
}

// NewContext returns a context; setups are built on first use.
func NewContext(cfg Config) *Context { return &Context{Cfg: cfg} }

// ClueWeb returns the ClueWeb12-like setup, building it on first use.
func (ctx *Context) ClueWeb() *Setup {
	if ctx.cw == nil {
		ctx.cw = NewSetup(corpus.ClueWebLike(ctx.Cfg.Scale), ctx.Cfg)
	}
	return ctx.cw
}

// CCNews returns the CC-News-like setup, building it on first use.
func (ctx *Context) CCNews() *Setup {
	if ctx.cc == nil {
		ctx.cc = NewSetup(corpus.CCNewsLike(ctx.Cfg.Scale), ctx.Cfg)
	}
	return ctx.cc
}

// Experiment is one regenerable table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx *Context) []*Table
}

// Experiments lists every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig3", "Compression ratio by scheme and dataset", Fig3},
		{"table1", "Hardware methodology", Table1},
		{"table2", "Query types", Table2},
		{"fig9", "Multi-core throughput (ClueWeb12-like)", Fig9},
		{"fig10", "Multi-core throughput (CC-News-like)", Fig10},
		{"fig11", "Bandwidth utilization (ClueWeb12-like)", Fig11},
		{"fig12", "Bandwidth utilization (CC-News-like)", Fig12},
		{"fig13", "Single-core throughput analysis", Fig13},
		{"fig14", "Normalized number of evaluated documents", Fig14},
		{"fig15", "Normalized memory access count", Fig15},
		{"fig16", "DRAM vs SCM comparison", Fig16},
		{"table3", "Area and power of BOSS", Table3},
		{"fig17", "Energy consumption", Fig17},
		{"headline", "Geomean speedup and energy summary", Headline},
		{"ablation-et", "Early-termination ablation", AblationET},
		{"ablation-pipeline", "Pipelined vs spilled multi-term intersection", AblationPipeline},
		{"ablation-topk", "Hardware vs host-side top-k", AblationTopK},
		{"ablation-hybrid", "Hybrid vs single-scheme compression", AblationHybrid},
		{"scaleout", "Pool scale-out: nodes vs aggregate throughput", Scaleout},
		{"ablation-baseline", "BOSS vs WAND-hardened software baseline", AblationBaseline},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// sortedQueryTypes is a convenience alias.
func sortedQueryTypes() []corpus.QueryType { return corpus.AllQueryTypes() }
