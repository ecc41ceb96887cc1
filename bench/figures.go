package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"boss/internal/corpus"
	"boss/internal/engine"
	"boss/internal/harness"
	"boss/internal/iiu"
	"boss/internal/query"
)

// repoRoot walks up from the working directory to the module root, so the
// benchmark finds results_full.txt whether it runs from the repo root
// (go run ./bench) or from bench/ (go test).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// runFigures is the model-only workload: op = one full
// harness.Experiments() pass on a fresh harness.Context. Correctness is
// the "modeled figures stay byte-identical" rule as a gate: every table
// must appear verbatim in the committed results_full.txt, each differing
// table counting as a failed op. (Under -smoke the pass runs at
// QuickConfig, which has no committed output; two passes must then agree
// with each other.)
func runFigures(sp spec, cfg runConfig) (*workloadReport, error) {
	w := &workloadReport{Name: sp.name, Traced: cfg.traced, Seed: cfg.seed, Phases: map[string]int{}}
	hcfg := harness.FullConfig()
	var want string
	if cfg.smoke {
		hcfg = harness.QuickConfig()
	} else {
		root, err := repoRoot()
		if err != nil {
			return nil, err
		}
		raw, err := os.ReadFile(filepath.Join(root, "results_full.txt"))
		if err != nil {
			return nil, fmt.Errorf("committed figures: %w", err)
		}
		want = string(raw)
	}
	stat0 := readProcStat()

	// setup: the two harness.Setups (corpora plus hybrid and BP indexes).
	// A fresh Context builds its own lazily inside the pass, so this is
	// the same work measured on its own.
	setupS := make([]float64, 0, setupRounds)
	var cw *harness.Setup
	var genS float64
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		cw = harness.NewSetup(corpus.ClueWebLike(hcfg.Scale), hcfg)
		harness.NewSetup(corpus.CCNewsLike(hcfg.Scale), hcfg)
		setupS = append(setupS, time.Since(start).Seconds())
	}
	start := time.Now()
	corpus.Generate(corpus.ClueWebLike(hcfg.Scale))
	genS = time.Since(start).Seconds()

	exps := harness.Experiments()
	expCPU := make(map[string][]float64, len(exps))
	var cpuOp, allocOp []float64
	passes := sp.passes
	if cfg.smoke {
		passes = 2 // no committed output at QuickConfig: the second pass must repeat the first
	}
	for p := 0; p < passes; p++ {
		ctx := harness.NewContext(hcfg)
		var out strings.Builder
		cpu0, m0 := cpuMicros(), mallocs()
		for _, e := range exps {
			c0 := cpuMicros()
			for _, t := range e.Run(ctx) {
				s := t.String() + "\n" // what `bossbench -exp all` prints per table
				out.WriteString(s)
				w.Attempted++
				if !strings.Contains(want, s) {
					w.Failed++
				}
			}
			expCPU[e.ID] = append(expCPU[e.ID], (cpuMicros()-c0)/1e3)
		}
		cpuOp = append(cpuOp, cpuMicros()-cpu0)
		allocOp = append(allocOp, float64(mallocs()-m0))
		if cfg.smoke && p == 0 {
			want = out.String()
			w.Attempted, w.Failed = 0, 0
		} else if out.String() != want && w.Failed == 0 {
			w.Failed++ // every table is in the file, yet the whole differs: order or count
		}
	}
	w.Phases["passes"] = passes
	if w.Failed > 0 {
		w.Failures = map[string]int{failWrong: w.Failed}
	}
	if !cfg.smoke {
		w.check("figures byte-identical", w.Failed == 0, "%d of %d tables over %d passes differ from results_full.txt", w.Failed, w.Attempted, passes)
	}

	w.addSummary("setup_s", "s", summarize(setupS))
	w.addSummary("cpu_us_per_op", "us", summarize(cpuOp))
	w.addSummary("allocs_per_op", "count", summarize(allocOp))
	w.add("fail_frac", "ratio", float64(w.Failed)/float64(max(w.Attempted, 1)))
	w.add("live_heap_mb", "MiB", liveHeapMiB())
	for _, e := range exps {
		w.addSummary("harness.exp_cpu_ms."+e.ID, "ms", summarize(expCPU[e.ID]))
	}

	// The two baseline engines on the ClueWeb-like setup's own workload.
	eng, dev := engine.New(cw.Hybrid), iiu.New(cw.Fixed)
	var engUs, iiuUs []float64
	for _, qt := range corpus.AllQueryTypes() {
		for _, q := range cw.Workload[qt] {
			node := query.MustParse(q.Expr)
			start := time.Now()
			if _, err := eng.Run(node, hcfg.K); err != nil {
				return nil, fmt.Errorf("engine %q: %w", q.Expr, err)
			}
			engUs = append(engUs, float64(time.Since(start))/1e3)
			start = time.Now()
			if _, err := dev.Run(node, hcfg.K); err != nil {
				return nil, fmt.Errorf("iiu %q: %w", q.Expr, err)
			}
			iiuUs = append(iiuUs, float64(time.Since(start))/1e3)
		}
	}
	w.add("engine.run_us", "us", median(engUs))
	w.add("iiu.run_us", "us", median(iiuUs))
	w.add("corpus.generate_s", "s", genS)
	w.add("bench.steal_frac", "ratio", stealFrac(stat0, readProcStat()))
	return w, nil
}
