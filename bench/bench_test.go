package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"boss/internal/compress"
	"boss/internal/core"
	"boss/internal/corpus"
	"boss/internal/index"
)

func TestPercentileCeilRank(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{10, 0.5, 5, false},      // rank ceil(5) = 5; 5 beyond
		{20, 0.5, 10, true},      // 10 beyond
		{101, 0.5, 51, true},     // rank ceil(50.5) = 51
		{1100, 0.99, 1089, true}, // 11 beyond: the frozen seq counts support p99
		{999, 0.99, 990, false},  // 9 beyond: suppressed
		{100, 0.99, 99, false},   // 1 beyond
		{1, 0.99, 1, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, p=%v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples must not be ok")
	}
	for _, sp := range specs {
		if !sp.figures && sp.seqN < minSeqN {
			t.Errorf("%s: seqN %d cannot support svc_p99_us", sp.name, sp.seqN)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	sp := interval{100, 200}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one inside", []interval{{120, 150}}, 70},
		{"overlapping pair counts once", []interval{{110, 150}, {140, 180}}, 30},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"clipped to the span", []interval{{50, 120}, {190, 300}}, 70},
		{"outside", []interval{{0, 50}, {250, 300}}, 100},
		{"covers everything", []interval{{0, 300}}, 0},
		{"unsorted", []interval{{160, 170}, {110, 120}}, 80},
	}
	for _, c := range cases {
		if got := selfTime(sp, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestFloorOverReplays(t *testing.T) {
	floor, raw := floorSum([][]float64{{10, 20, 30}, {12, 18, 33}, {11, 25, 29}})
	if floor != 10+18+29 || raw != (60+63+65)/3.0 {
		t.Errorf("floorSum = %v, %v; want 57, %v", floor, raw, (60+63+65)/3.0)
	}
	// Two replays of two 16-op units; the host runs the second replay 25%
	// slower, reference samples included, so both replays cost the same
	// relative to the reference, and so does the floor.
	rounds := []roundResult{
		{unitCPU: []float64{1600, 3200}, calibCPU: []float64{calibNominalUs, calibNominalUs}},
		{unitCPU: []float64{2000, 4000}, calibCPU: []float64{1.25 * calibNominalUs, 1.25 * calibNominalUs}},
	}
	sc := newSatCost(rounds, 32)
	if sc.floor != 150 || sc.calibUs != calibNominalUs || sc.raw != (4800+6000)/2.0/32 {
		t.Errorf("newSatCost = %+v; want floor 150, calib %v", sc, calibNominalUs)
	}
	if len(sc.replays) != 2 || sc.replays[0] != 150 || sc.replays[1] != 150 {
		t.Errorf("per-replay costs = %v, want [150 150]", sc.replays)
	}
}

func TestLinkAndBudget(t *testing.T) {
	// Two requests coalesce onto one batch; a third has its own. The
	// second request starts after its batch did (attach while executing).
	spans := []span{
		{ID: 1, Name: spanRequest, Start: 0, End: 100, key: "a"},
		{ID: 2, Name: spanSubmit, Parent: 1, Start: 0, End: 10},
		{ID: 3, Name: spanRequest, Start: 50, End: 100, key: "a"},
		{ID: 4, Name: spanSubmit, Parent: 3, Start: 50, End: 55},
		{ID: 5, Name: spanBatch, Start: 40, End: 90, N: 1, keys: []string{"a"}},
		{ID: 6, Name: spanRequest, Start: 200, End: 300, key: "b"},
		{ID: 7, Name: spanBatch, Start: 280, End: 295, N: 1, keys: []string{"B"}},
		{ID: 8, Name: spanRequest, Start: 400, End: 500, key: "c"}, // no batch
	}
	canon := func(k string) string {
		if k == "B" {
			return "b"
		}
		return k
	}
	matched, requests := link(spans, canon)
	if matched != 3 || requests != 4 {
		t.Fatalf("link = %d of %d, want 3 of 4", matched, requests)
	}
	if got := spans[4].Parents; !reflect.DeepEqual(got, []int{1, 3}) {
		t.Errorf("batch 5 parents = %v, want [1 3]", got)
	}
	tb := budget(spans)
	// self: req1 100-10-50=40, req3 50-(5+35 overlap-free: [50,55]+[50,90] = 40)=10, req6 100-15=85, req8 100.
	if want := (40.0 + 10 + 85 + 100) / 4; tb.selfNs != want {
		t.Errorf("mean self = %v, want %v", tb.selfNs, want)
	}
}

func TestSeedsDriveStreamsAndSchedules(t *testing.T) {
	a, b, c := poissonSchedule(7, 1000, 500), poissonSchedule(7, 1000, 500), poissonSchedule(8, 1000, 500)
	if !reflect.DeepEqual(a, b) {
		t.Error("equal seeds gave different arrival schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same arrival schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule not monotone at %d", i)
		}
	}
	corp := corpus.Generate(corpus.ClueWebLike(smokeScale))
	exprs := func(seed int64, sp spec) []string {
		stream, _, err := buildStream(sp.scaled(1, true), corp, seed)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(stream))
		for i, q := range stream {
			out[i] = q.expr
		}
		return out
	}
	for _, sp := range specs {
		if sp.figures {
			continue
		}
		if !reflect.DeepEqual(exprs(7, sp), exprs(7, sp)) {
			t.Errorf("%s: equal seeds gave different streams", sp.name)
		}
		if reflect.DeepEqual(exprs(7, sp), exprs(8, sp)) {
			t.Errorf("%s: different seeds gave the same stream", sp.name)
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json's exact key set.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheBinary(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	var serving []spec
	for _, sp := range specs {
		if !sp.figures {
			serving = append(serving, sp)
		}
	}
	if len(bj.Workloads) != len(serving) {
		t.Fatalf("%d workloads listed, the binary has %d serving workloads", len(bj.Workloads), len(serving))
	}
	for i, w := range bj.Workloads {
		checkName(w.Name)
		if w.Name != serving[i].name || w.Why != serving[i].why {
			t.Errorf("workload %d = %q (%q), the binary has %q (%q)", i, w.Name, w.Why, serving[i].name, serving[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the binary's table:\n%v\n%v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayerListed) {
		t.Errorf("per_layer differs from the binary's table:\n%v\n%v", bj.PerLayer, perLayerListed)
	}
	haveSetup := false
	for _, d := range append(append([]metricDef{}, bj.EndToEnd...), bj.PerLayer...) {
		checkName(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			haveSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !haveSetup {
		t.Error("end_to_end lacks setup_s (unit s, lower is better)")
	}
	if bj.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, the counts were sized for %d", bj.RunSeconds, refSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "conj-fit", "--seed", "3", "--seconds", "10", "--trace", "1"})
	want := []string{"--workload", "conj-fit", "--seed", "3", "--seconds", "10", "-trace=1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %v, want %v", got, want)
	}
	o, err := parseOptions([]string{"--workload", "x", "--seed", "9", "--seconds", "5", "--trace", "0"})
	if err != nil || o.trace || o.seed != 9 || o.seconds != 5 || o.workload != "x" {
		t.Errorf("driver form parsed to %+v, %v", o, err)
	}
	if o, err := parseOptions([]string{"-trace"}); err != nil || !o.trace {
		t.Errorf("bare -trace parsed to %+v, %v", o, err)
	}
}

func TestJudge(t *testing.T) {
	def := metricDef{Name: "cpu_us_per_op", Better: "lower", Bound: 0.10}
	m := func(v, lo, hi float64) metric { return metric{Value: v, Min: lo, Max: hi, N: 8} }
	cases := []struct {
		name     string
		old, cur metric
		want     string
	}{
		{"within the bound", m(100, 98, 102), m(105, 103, 107), vSame},
		{"worse than the bound", m(100, 98, 102), m(115, 113, 117), vRegression},
		{"better than the bound", m(100, 98, 102), m(80, 79, 82), vBetter},
		{"noisy and overlapping", m(100, 90, 120), m(104, 95, 125), vUnresolved},
		{"noisy but every slice worse", m(100, 90, 110), m(150, 130, 170), vRegression},
		{"noisy but every slice better", m(100, 90, 110), m(60, 50, 80), vBetter},
		{"single values compare plainly", metric{Value: 100}, metric{Value: 100.5}, vSame},
	}
	for _, c := range cases {
		if got, _ := judge(def, c.old, c.cur); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	higher := metricDef{Name: "front.sat_qps", Better: "higher", Bound: 0.10}
	if got, _ := judge(higher, metric{Value: 100}, metric{Value: 80}); got != vRegression {
		t.Errorf("higher-is-better drop: %s, want %s", got, vRegression)
	}
}

// The SPARSE oracle is a brute-force accumulator; the twin the issue names
// (core with ExhaustiveOptions) is too slow to run over a whole stream at
// the benchmark's scale, so it is held to it here, byte for byte.
func TestSparseOracleMatchesExhaustiveTwin(t *testing.T) {
	sp, _ := findSpec("sparse-q7")
	sp = sp.scaled(1, true)
	c := corpus.Generate(corpus.ClueWebLike(smokeScale))
	mono := index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid, Impacts: true})
	_, distinct, err := buildStream(sp, c, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newOracle(sp, c, mono, distinct); err != nil {
		t.Fatal(err)
	}
	twin := core.New(mono, core.ExhaustiveOptions())
	for _, q := range distinct {
		res, err := twin.RunSparse(q.node.Terms(), q.k)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTopK(res.TopK, q.want) {
			t.Fatalf("%s: brute force %v, exhaustive twin %v", q.expr, q.want, res.TopK)
		}
	}
}

// The smoke run exercises all six workloads, untraced and traced, and the
// oracle; every listed metric name must be among what the binary prints.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run takes a few seconds")
	}
	dir := t.TempDir()
	rep, err := runSuite(options{seed: 5, seconds: refSeconds, trace: true, smoke: true, runs: 1, outDir: dir, stdout: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*len(specs) - 1; len(rep.Workloads) != want { // figures has no traced run
		t.Fatalf("%d workload reports, want %d", len(rep.Workloads), want)
	}
	for _, w := range rep.Workloads {
		if w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s (traced=%v): %d failed of %d: %v", w.Name, w.Traced, w.Failed, w.Attempted, w.Failures)
		}
		if sp, _ := findSpec(w.Name); sp.figures {
			continue
		}
		if _, err := w.driverLine(); err != nil {
			t.Errorf("%s (traced=%v): %v", w.Name, w.Traced, err)
		}
		if w.Traced {
			if _, err := os.Stat(w.TraceFile); err != nil {
				t.Errorf("%s: trace file: %v", w.Name, err)
			}
		}
	}
	back, err := readSuite(filepath.Join(dir, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n := compare(io.Discard, back, rep); n != 0 {
		t.Errorf("a report compared with itself shows %d regressions", n)
	}
	if d := diffExact(back, rep); len(d) != 0 {
		t.Errorf("a report differs from itself: %v", d)
	}
}
