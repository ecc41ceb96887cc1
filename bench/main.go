// Command bench is the repository's one seeded benchmark: six workloads,
// the end-to-end metrics a user of the serving stack would see, a
// per-layer table, and a traced run. Every answer is checked against an
// oracle; a wrong one makes the exit status nonzero.
//
//	go run ./bench                      # all six workloads, untraced
//	go run ./bench -trace               # ... plus the traced run of each
//	go run ./bench -workload conj-fit   # one workload, in this process
//	go run ./bench -runs 2              # the suite twice; fail if the runs disagree
//	go run ./bench -compare old.json new.json
//	go run ./bench -smoke               # tiny corpus, 200 requests per phase
//
// The driver named in BENCHMARK.json runs
// `... --workload W --seed N --seconds S --trace 0|1`; the last line of
// standard output is then the JSON object its contract prescribes. See
// README.md for the metric definitions and bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// normalizeArgs rewrites the driver's `--trace 0` / `--trace 1` into
// `-trace=0` / `-trace=1`, so one boolean flag serves both the driver's
// form and the bare `-trace` a person types.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	runs     int
	compare  bool
	outDir   string
	jsonPath string
	report   string // child mode: where to write the workload report
	args     []string
	stdout   io.Writer
}

func parseOptions(args []string) (options, error) {
	o := options{stdout: os.Stdout}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process (default: all six, each in a child process)")
	fs.Int64Var(&o.seed, "seed", 42, "workload seed: request streams and arrival schedules derive from it")
	fs.Float64Var(&o.seconds, "seconds", refSeconds, "target measuring time of one workload run; phase counts scale with it")
	fs.BoolVar(&o.trace, "trace", false, "also (with -workload: only) make the traced run that yields the per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny corpus and 200 requests per phase, in-process: exercises every workload and the oracle in seconds")
	fs.IntVar(&o.runs, "runs", 1, "run the suite this many times back to back and fail if consecutive runs disagree beyond the bounds")
	fs.BoolVar(&o.compare, "compare", false, "compare two suite reports: bench -compare old.json new.json")
	fs.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for trace files and reports")
	fs.StringVar(&o.jsonPath, "json", "", "write the suite report here (default <out>/report.json)")
	fs.StringVar(&o.report, "report", "", "internal: write this workload's report here (set by the suite for its children)")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return o, err
	}
	o.args = fs.Args()
	if o.seconds <= 0 || o.runs < 1 {
		return o, fmt.Errorf("-seconds and -runs must be positive")
	}
	return o, nil
}

func main() {
	o, err := parseOptions(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	code, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(o options) (int, error) {
	switch {
	case o.compare:
		if len(o.args) != 2 {
			return 2, fmt.Errorf("usage: bench -compare old.json new.json")
		}
		old, err := readSuite(o.args[0])
		if err != nil {
			return 1, err
		}
		cur, err := readSuite(o.args[1])
		if err != nil {
			return 1, err
		}
		if n := compare(o.stdout, old, cur); n > 0 {
			return 1, fmt.Errorf("%d regression(s)", n)
		}
		return 0, nil
	case o.workload != "":
		return runOne(o)
	}
	var prev *suiteReport
	for i := 0; i < o.runs; i++ {
		rep, err := runSuite(o)
		if err != nil {
			return 1, err
		}
		if prev != nil {
			say(o.stdout, "== run %d against run %d ==\n", i+1, i)
			n := compare(o.stdout, prev, rep)
			diffs := diffExact(prev, rep)
			for _, d := range diffs {
				say(o.stdout, "exact counter differs: %s\n", d)
			}
			if n > 0 || len(diffs) > 0 {
				return 1, fmt.Errorf("two runs of the same code disagree: %d beyond bounds, %d exact counters", n, len(diffs))
			}
		}
		prev = rep
	}
	return 0, nil
}

// runOne runs a single workload in this process: the child of a suite
// run, or the driver's invocation. The last line of standard output is
// the driver's JSON object.
func runOne(o options) (int, error) {
	w, err := runWorkload(runConfig{workload: o.workload, seed: o.seed, seconds: o.seconds, traced: o.trace, smoke: o.smoke, outDir: o.outDir})
	if err != nil {
		return 1, err
	}
	w.print(o.stdout)
	if o.report != "" {
		if err := writeJSON(o.report, w); err != nil {
			return 1, err
		}
	}
	if sp, _ := findSpec(o.workload); !sp.figures {
		line, err := w.driverLine()
		if err != nil {
			return 1, err
		}
		say(o.stdout, "%s\n", line)
	}
	if w.Failed > 0 {
		return 1, fmt.Errorf("%s: %d of %d answers wrong or failed", w.Name, w.Failed, w.Attempted)
	}
	return 0, nil
}

// runSuite runs every workload — each in a fresh child process, so heap,
// rusage and caches are per-workload and order-independent — then the
// cross-workload checks, and writes the suite report.
func runSuite(o options) (*suiteReport, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	rep := &suiteReport{
		Schema: reportSchema, Seed: o.seed, Seconds: o.seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: gitCommit(),
	}
	say(o.stdout, "bench %s: seed %d, %.0f s per workload, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		reportSchema, rep.Seed, rep.Seconds, rep.NProc, rep.GOMAXPROCS, rep.GoVersion, rep.Commit)
	modes := []bool{false}
	if o.trace {
		modes = append(modes, true)
	}
	for _, traced := range modes {
		for _, sp := range specs {
			if traced && sp.figures {
				continue // no front door, no spans: the model workload has no traced run
			}
			cfg := runConfig{workload: sp.name, seed: o.seed, seconds: o.seconds, traced: traced, smoke: o.smoke, outDir: o.outDir}
			var w *workloadReport
			var err error
			if o.smoke {
				if w, err = runWorkload(cfg); err == nil {
					w.print(o.stdout)
				}
			} else {
				w, err = runChild(cfg)
			}
			if err != nil {
				return nil, err
			}
			rep.Workloads = append(rep.Workloads, w)
		}
	}
	failed := suiteChecks(rep, o.smoke)
	for _, c := range rep.Checks {
		say(o.stdout, "%s\n", c)
	}
	path := o.jsonPath
	if path == "" {
		path = filepath.Join(o.outDir, "report.json")
	}
	if err := writeJSON(path, rep); err != nil {
		return nil, err
	}
	say(o.stdout, "report: %s\n", path)
	if failed > 0 {
		return nil, fmt.Errorf("%d check(s) failed", failed)
	}
	return rep, nil
}

// runChild runs one workload in a child process of this same binary and
// reads its report back.
func runChild(cfg runConfig) (*workloadReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("workload-%s-trace%v.json", cfg.workload, cfg.traced))
	cmd := exec.Command(exe,
		"-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
		fmt.Sprintf("-trace=%v", cfg.traced), "-out", cfg.outDir, "-report", path)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", cfg.workload, err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var w workloadReport
	if err := json.Unmarshal(raw, &w); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &w, nil
}

// suiteChecks gathers every workload's own checks and adds the ones that
// compare workloads. It returns the number that failed.
func suiteChecks(rep *suiteReport, smoke bool) int {
	byName := make(map[string]*workloadReport)
	for _, w := range rep.Workloads {
		for _, c := range w.Checks {
			c.Name = w.Name + ": " + c.Name
			rep.Checks = append(rep.Checks, c)
		}
		if !w.Traced {
			byName[w.Name] = w
		}
	}
	val := func(workload, name string) float64 {
		if w := byName[workload]; w != nil {
			m, _ := w.get(name)
			return m.Value
		}
		return 0
	}
	add := func(name string, ok bool, format string, args ...any) {
		rep.Checks = append(rep.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	}
	if fit := val("conj-fit", "cpu_us_per_op"); fit > 0 && !smoke {
		spill := val("conj-spill", "cpu_us_per_op")
		add("conj-spill costs decode", spill >= 2*fit, "cpu_us_per_op %.1f vs conj-fit %.1f (want >= 2x)", spill, fit)
		sfHit, fitHit := val("search-fetch", "cache.posting_hit_rate"), val("conj-fit", "cache.posting_hit_rate")
		add("search-fetch shares the budget", sfHit < fitHit, "posting hit rate %.4f vs conj-fit %.4f (want lower)", sfHit, fitHit)
		q7 := val("sparse-q7", "cpu_us_per_op")
		add("sparse-q7 / conj-fit CPU", true, "%.1f us / %.1f us = %.2fx", q7, fit, q7/fit)
	}
	failed := 0
	for _, c := range rep.Checks {
		if !c.OK {
			failed++
		}
	}
	return failed
}

// gitCommit reports the commit the binary was built from: the VCS stamp
// when the toolchain left one, else git itself, else "unknown".
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}
