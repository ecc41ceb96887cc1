package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

const reportSchema = "boss-bench/v1"

// metricDef is one named metric of the benchmark's contract.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is BENCHMARK.json's end_to_end list: the metrics a user of the
// system would see, each with the share of the parent's median by which
// it may worsen before a change counts as a regression. Every serving
// workload reports all of them. The bounds come from the spread of ten
// runs on ten seeds on the reference box (README, "Bounds"): the driver
// refuses a benchmark whose spread exceeds its own bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.02},
	{"live_heap_mb", "MiB", "lower", 0.25},
	{"sim_us_per_op", "us", "lower", 0.10},
	{"sim_scm_bytes_per_op", "bytes", "lower", 0.10},
}

// reportedOnly are end-to-end metrics the binary prints and -compare
// judges but BENCHMARK.json leaves out: their run-to-run spread on the
// reference box reaches or passes the largest bound the driver's contract
// allows (in the noisiest hour, steal 0.1-0.4: svc_p50_us 10-45%,
// svc_p99_us 17%, open_p50_ms 29% of the median), and
// fail_frac is 0 on a healthy run where the contract wants gated metrics
// that are never 0 — it reaches the driver as failed/attempted instead,
// and -compare holds it to failBound absolute.
var reportedOnly = []metricDef{
	{"svc_p50_us", "us", "lower", 0.25},
	{"svc_p99_us", "us", "lower", 0.25},
	{"open_p50_ms", "ms", "lower", 0.25},
}

// compared is every end-to-end metric -compare judges.
var compared = append(append([]metricDef(nil), endToEnd...), reportedOnly...)

// failBound is the absolute worsening of fail_frac that is a regression.
const failBound = 0.001

// perLayerListed is BENCHMARK.json's per_layer list: the layer metrics
// every serving workload's traced run produces. Workload-specific layer
// metrics (docstore.*, pool.*, core.fetch_doc_us, front.wait_ms where the
// backend can be wrapped, ...) are in the suite report only.
var perLayerListed = []metricDef{
	{Name: "query.parse_canon_us", Unit: "us", Better: "lower"},
	{Name: "front.submit_us", Unit: "us", Better: "lower"},
	{Name: "front.batch_size", Unit: "count", Better: "higher"},
	{Name: "front.dedup_frac", Unit: "ratio", Better: "higher"},
	{Name: "front.sat_qps", Unit: "1/s", Better: "higher"},
	{Name: "front.open_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.run_us", Unit: "us", Better: "lower"},
	{Name: "core.blocks_fetched_per_op", Unit: "count", Better: "lower"},
	{Name: "core.blocks_skipped_per_op", Unit: "count", Better: "higher"},
	{Name: "core.skip_frac", Unit: "ratio", Better: "higher"},
	{Name: "core.docs_evaluated_per_op", Unit: "count", Better: "lower"},
	{Name: "core.postings_decoded_per_op", Unit: "count", Better: "lower"},
	{Name: "index.verify_block_ns", Unit: "ns", Better: "lower"},
	{Name: "index.decode_block_ns", Unit: "ns", Better: "lower"},
	{Name: "index.cursor_ns_per_posting", Unit: "ns", Better: "lower"},
	{Name: "index.build_s", Unit: "s", Better: "lower"},
	{Name: "index.write_read_s", Unit: "s", Better: "lower"},
	{Name: "index.bytes_per_posting", Unit: "bytes", Better: "lower"},
	{Name: "decomp.decode_ns_per_block", Unit: "ns", Better: "lower"},
	{Name: "decomp.cycles_per_block", Unit: "count", Better: "lower"},
	{Name: "compress.decode_ns_per_block", Unit: "ns", Better: "lower"},
	{Name: "cache.posting_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "cache.get_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.publish_ns", Unit: "ns", Better: "lower"},
	{Name: "topk.insert_ns_k10", Unit: "ns", Better: "lower"},
	{Name: "topk.insert_ns_k100", Unit: "ns", Better: "lower"},
	{Name: "score.term_score_ns", Unit: "ns", Better: "lower"},
	{Name: "corpus.generate_s", Unit: "s", Better: "lower"},
	{Name: "bench.warmup_s", Unit: "s", Better: "lower"},
	{Name: "bench.gen_lag_ms_max", Unit: "ms", Better: "lower"},
	{Name: "bench.steal_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
}

// metric is one measured value. Slice metrics carry the spread of the
// slices their median was taken over.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	N     int     `json:"n,omitempty"`
}

// check is one "the workload does what it is for" assertion.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

func (c check) String() string {
	status := "ok  "
	if !c.OK {
		status = "FAIL"
	}
	return fmt.Sprintf("check %s %s: %s", status, c.Name, c.Detail)
}

// workloadReport is one workload run (one child process).
type workloadReport struct {
	Name      string         `json:"name"`
	Traced    bool           `json:"traced"`
	Seed      int64          `json:"seed"`
	Phases    map[string]int `json:"phase_requests"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Failures  map[string]int `json:"failures,omitempty"` // failed, by reason
	WallS     float64        `json:"wall_s"`
	Metrics   []metric       `json:"metrics"`
	Checks    []check        `json:"checks,omitempty"`
	TraceFile string         `json:"trace_file,omitempty"`
}

func (w *workloadReport) add(name, unit string, v float64) {
	w.Metrics = append(w.Metrics, metric{Name: name, Unit: unit, Value: v})
}

func (w *workloadReport) addSummary(name, unit string, s summary) {
	w.Metrics = append(w.Metrics, metric{Name: name, Unit: unit, Value: s.Median, Min: s.Min, Max: s.Max, N: s.N})
}

func (w *workloadReport) get(name string) (metric, bool) {
	for _, m := range w.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

func (w *workloadReport) check(name string, ok bool, format string, args ...any) {
	w.Checks = append(w.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// suiteReport is the JSON report of a whole run: the environment header
// plus every workload, untraced runs first.
type suiteReport struct {
	Schema     string            `json:"schema"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"GOMAXPROCS"`
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"git_commit"`
	Workloads  []*workloadReport `json:"workloads"`
	Checks     []check           `json:"checks,omitempty"`
}

// say writes one piece of the human-readable report. A failed write to
// the terminal has nowhere better to be reported, so its error is dropped.
func say(out io.Writer, format string, args ...any) { _, _ = fmt.Fprintf(out, format, args...) }

// print writes every metric by name with its unit, sample counts and
// failures over attempts.
func (w *workloadReport) print(out io.Writer) {
	mode := "untraced"
	if w.Traced {
		mode = "traced"
	}
	say(out, "== %s (%s, seed %d): %d failed / %d attempted, %.1f s ==\n", w.Name, mode, w.Seed, w.Failed, w.Attempted, w.WallS)
	if w.Failed > 0 {
		say(out, "  failures by reason: %v\n", w.Failures)
	}
	for _, m := range w.Metrics {
		switch {
		case m.N > 0 && m.Max != 0:
			say(out, "  %-34s %14.4f %-6s (min %.4f max %.4f n=%d)\n", m.Name, m.Value, m.Unit, m.Min, m.Max, m.N)
		case m.N > 0:
			say(out, "  %-34s %14.4f %-6s (n=%d)\n", m.Name, m.Value, m.Unit, m.N)
		default:
			say(out, "  %-34s %14.4f %s\n", m.Name, m.Value, m.Unit)
		}
	}
	for _, c := range w.Checks {
		say(out, "  %s\n", c)
	}
}

// driverLine renders the last line of standard output the driver's
// contract prescribes: exactly the listed metrics, end_to_end for the
// untraced run and per_layer for the traced one.
func (w *workloadReport) driverLine() (string, error) {
	defs := endToEnd
	if w.Traced {
		defs = perLayerListed
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: w.Failed == 0, Attempted: w.Attempted, Failed: w.Failed, Metrics: make(map[string]mv, len(defs))}
	for _, d := range defs {
		m, ok := w.get(d.Name)
		if !ok {
			return "", fmt.Errorf("workload %s did not produce listed metric %s", w.Name, d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("workload %s: metric %s is %v", w.Name, d.Name, m.Value)
		}
		line.Metrics[d.Name] = mv{Value: m.Value, Unit: d.Unit}
	}
	b, err := json.Marshal(line)
	return string(b), err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readSuite(path string) (*suiteReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r suiteReport
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, reportSchema)
	}
	return &r, nil
}

// verdicts of one (metric, workload) comparison.
const (
	vSame       = "same"
	vBetter     = "better"
	vRegression = "REGRESSION"
	vUnresolved = "unresolved"
)

// judge compares one metric of two runs under its bound. When either
// run's own min-max slice spread exceeds the bound the comparison is
// unresolved rather than unchanged — unless every slice of one run reads
// worse (or better) than every slice of the other.
func judge(def metricDef, old, cur metric) (verdict string, worse float64) {
	if old.Value == 0 {
		return vSame, 0
	}
	sign := 1.0
	if def.Better == "higher" {
		sign = -1
	}
	worse = sign * (cur.Value - old.Value) / math.Abs(old.Value)
	noisy := func(m metric) bool {
		return m.N >= 2 && m.Value != 0 && (m.Max-m.Min)/math.Abs(m.Value) > def.Bound
	}
	if noisy(old) || noisy(cur) {
		switch {
		case sign*(cur.Min-old.Max) > 0 && sign*(cur.Max-old.Min) > 0:
			return vRegression, worse
		case sign*(cur.Max-old.Min) < 0 && sign*(cur.Min-old.Max) < 0:
			return vBetter, worse
		}
		return vUnresolved, worse
	}
	switch {
	case worse > def.Bound:
		return vRegression, worse
	case worse < -def.Bound:
		return vBetter, worse
	}
	return vSame, worse
}

// compare applies the end-to-end bounds per (metric, workload) to two
// suite reports, printing one row per workload. It returns the number of
// regressions.
func compare(out io.Writer, old, cur *suiteReport) int {
	regressions := 0
	find := func(r *suiteReport, name string) *workloadReport {
		for _, w := range r.Workloads {
			if w.Name == name && !w.Traced {
				return w
			}
		}
		return nil
	}
	for _, ow := range old.Workloads {
		if ow.Traced {
			continue
		}
		cw := find(cur, ow.Name)
		if cw == nil {
			say(out, "%-13s missing from the new report: %s\n", ow.Name, vRegression)
			regressions++
			continue
		}
		var cells []string
		for _, def := range compared {
			om, ok1 := ow.get(def.Name)
			cm, ok2 := cw.get(def.Name)
			if !ok1 && !ok2 {
				continue // not applicable to this workload
			}
			if ok1 != ok2 {
				cells = append(cells, fmt.Sprintf("%s=%s(present in one run only)", def.Name, vRegression))
				regressions++
				continue
			}
			v, worse := judge(def, om, cm)
			if v == vRegression {
				regressions++
			}
			cells = append(cells, fmt.Sprintf("%s=%s(%+.1f%%)", def.Name, v, 100*worse))
		}
		of := float64(ow.Failed) / float64(max(ow.Attempted, 1))
		cf := float64(cw.Failed) / float64(max(cw.Attempted, 1))
		v := vSame
		if cf-of > failBound {
			v = vRegression
			regressions++
		}
		cells = append(cells, fmt.Sprintf("fail_frac=%s(%.4f->%.4f)", v, of, cf))
		say(out, "%-13s %s\n", ow.Name, strings.Join(cells, " "))
	}
	return regressions
}

// exactMetrics are the simulated counters that must be bit-equal between
// two runs of the same code on the same seed.
func exactMetrics(w *workloadReport) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range w.Metrics {
		if strings.HasPrefix(m.Name, "sim_") || (strings.HasPrefix(m.Name, "core.") && strings.HasSuffix(m.Name, "_per_op")) || m.Name == "decomp.cycles_per_block" {
			out[m.Name] = m.Value
		}
	}
	return out
}

// diffExact lists the exact counters that differ between two reports.
func diffExact(a, b *suiteReport) []string {
	var diffs []string
	for i, aw := range a.Workloads {
		if i >= len(b.Workloads) || b.Workloads[i].Name != aw.Name {
			diffs = append(diffs, aw.Name+": workload lists differ")
			continue
		}
		bm := exactMetrics(b.Workloads[i])
		am := exactMetrics(aw)
		names := make([]string, 0, len(am))
		for name := range am {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if am[name] != bm[name] {
				diffs = append(diffs, fmt.Sprintf("%s %s: %v != %v", aw.Name, name, am[name], bm[name]))
			}
		}
	}
	return diffs
}
