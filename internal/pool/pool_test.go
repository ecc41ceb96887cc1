package pool

import (
	"testing"

	"boss/internal/compress"
	"boss/internal/core"
	"boss/internal/corpus"
	"boss/internal/index"
	"boss/internal/mem"
	"boss/internal/perf"
	"boss/internal/query"
	"boss/internal/sim"
)

func testIndex(t testing.TB) (*corpus.Corpus, *index.Index) {
	t.Helper()
	c := corpus.Generate(corpus.ClueWebLike(0.01))
	return c, index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid})
}

func submitBatch(t *testing.T, d *Device, c *corpus.Corpus, qt corpus.QueryType, n int) {
	t.Helper()
	queries := corpus.SampleQueries(c, qt, n, 11)
	for _, q := range queries {
		if err := d.Submit(q.Expr, 0); err != nil {
			t.Fatalf("submit %s: %v", q.Expr, err)
		}
	}
}

func TestDeviceRunsBatch(t *testing.T) {
	c, idx := testIndex(t)
	d := New(DefaultDeviceConfig(), idx)
	submitBatch(t, d, c, corpus.Q3, 24)
	r := d.Run()
	if r.Jobs != 24 {
		t.Fatalf("jobs = %d", r.Jobs)
	}
	if r.QPS <= 0 || r.Makespan <= 0 {
		t.Fatalf("degenerate report: %s", r)
	}
	if r.P99Latency < r.P50Latency || r.P50Latency <= 0 {
		t.Fatalf("latency percentiles wrong: %s", r)
	}
	if r.MeanLatency > r.Makespan {
		t.Fatal("mean latency cannot exceed makespan")
	}
}

func TestSubmitErrors(t *testing.T) {
	_, idx := testIndex(t)
	d := New(DefaultDeviceConfig(), idx)
	if err := d.Submit(`broken`, 0); err == nil {
		t.Fatal("malformed query accepted")
	}
	if err := d.Submit(`"notaterm"`, 0); err == nil {
		t.Fatal("unknown term accepted")
	}
}

func TestMoreCoresMoreThroughput(t *testing.T) {
	c, idx := testIndex(t)
	var qps [2]float64
	for i, cores := range []int{1, 8} {
		cfg := DefaultDeviceConfig()
		cfg.Cores = cores
		d := New(cfg, idx)
		submitBatch(t, d, c, corpus.Q5, 32)
		qps[i] = d.Run().QPS
	}
	if qps[1] <= qps[0]*2 {
		t.Fatalf("8 cores (%.0f qps) should well exceed 1 core (%.0f qps)", qps[1], qps[0])
	}
}

func TestEventSimAgreesWithAnalyticModel(t *testing.T) {
	// The event-driven device and the perf roofline are two views of the
	// same model; on a saturating batch they must agree within a modest
	// factor.
	c, idx := testIndex(t)
	cfg := DefaultDeviceConfig()
	cfg.K = 100
	d := New(cfg, idx)
	queries := corpus.SampleQueries(c, corpus.Q3, 40, 11)
	for _, q := range queries {
		if err := d.Submit(q.Expr, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Analytic throughput over the same workload.
	acc := core.New(idx, core.DefaultOptions())
	avg := perf.NewMetrics()
	for _, q := range queries {
		res, err := acc.Exec(nil, query.MustParse(q.Expr).Plan(), cfg.K)
		if err != nil {
			t.Fatal(err)
		}
		avg.Merge(res.M)
	}
	avg.Scale(int64(len(queries)))
	analytic := avg.Throughput(cfg.Cores, cfg.Mem, cfg.LinkGBs)

	measured := d.Run().QPS
	ratio := measured / analytic
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("event sim (%.0f qps) and analytic model (%.0f qps) disagree by %.2fx",
			measured, analytic, ratio)
	}
}

func TestContentionRaisesLatency(t *testing.T) {
	// A single query on an idle device vs the same query inside a
	// saturating batch: channel queueing must show up in p99.
	c, idx := testIndex(t)
	q := corpus.SampleQueries(c, corpus.Q5, 1, 3)[0]

	solo := New(DefaultDeviceConfig(), idx)
	if err := solo.Submit(q.Expr, 0); err != nil {
		t.Fatal(err)
	}
	soloLat := solo.Run().MeanLatency

	cfg := DefaultDeviceConfig()
	cfg.Cores = 2 // few cores, deep queue
	busy := New(cfg, idx)
	for i := 0; i < 40; i++ {
		if err := busy.Submit(q.Expr, 0); err != nil {
			t.Fatal(err)
		}
	}
	busyLat := busy.Run().P99Latency
	if busyLat <= soloLat {
		t.Fatalf("p99 under load (%v) should exceed idle latency (%v)", busyLat, soloLat)
	}
}

func TestHostTopKSaturatesLink(t *testing.T) {
	// With the top-k module ablated (full result lists over the link), a
	// narrow link becomes visibly utilized; with hardware top-k it idles.
	c, idx := testIndex(t)
	mk := func(hostTopK bool) *Report {
		cfg := DefaultDeviceConfig()
		cfg.LinkGBs = 0.05 // deliberately narrow link
		cfg.K = 100
		cfg.Opts = core.DefaultOptions()
		cfg.Opts.HostTopK = hostTopK
		d := New(cfg, idx)
		submitBatch(t, d, c, corpus.Q5, 16)
		return d.Run()
	}
	hw := mk(false)
	sw := mk(true)
	if sw.LinkUtilization <= hw.LinkUtilization {
		t.Fatalf("host-side top-k link util (%.3f) should exceed hardware top-k (%.3f)",
			sw.LinkUtilization, hw.LinkUtilization)
	}
	if sw.QPS >= hw.QPS {
		t.Fatalf("host-side top-k (%.0f qps) should lose to hardware top-k (%.0f qps) on a narrow link",
			sw.QPS, hw.QPS)
	}
}

func TestDRAMNodeFasterThanSCM(t *testing.T) {
	c, idx := testIndex(t)
	run := func(cfg mem.Config) float64 {
		dc := DefaultDeviceConfig()
		dc.Mem = cfg
		d := New(dc, idx)
		submitBatch(t, d, c, corpus.Q2, 20)
		return d.Run().QPS
	}
	if dram, scm := run(mem.DRAM()), run(mem.SCM()); dram < scm {
		t.Fatalf("DRAM node (%.0f qps) should not lose to SCM (%.0f qps)", dram, scm)
	}
}

func TestStaggeredArrivals(t *testing.T) {
	c, idx := testIndex(t)
	d := New(DefaultDeviceConfig(), idx)
	queries := corpus.SampleQueries(c, corpus.Q1, 10, 5)
	gap := 50 * sim.Microsecond
	for i, q := range queries {
		if err := d.Submit(q.Expr, sim.Time(i)*gap); err != nil {
			t.Fatal(err)
		}
	}
	r := d.Run()
	// With arrivals spread out, the makespan must cover the arrival span.
	if r.Makespan < 9*gap {
		t.Fatalf("makespan %v shorter than the arrival span", r.Makespan)
	}
}

func TestEmptyRun(t *testing.T) {
	_, idx := testIndex(t)
	d := New(DefaultDeviceConfig(), idx)
	r := d.Run()
	if r.Jobs != 0 || r.QPS != 0 {
		t.Fatalf("empty run report: %s", r)
	}
}

func TestReportString(t *testing.T) {
	c, idx := testIndex(t)
	d := New(DefaultDeviceConfig(), idx)
	submitBatch(t, d, c, corpus.Q1, 4)
	s := d.Run().String()
	if len(s) == 0 || s[0] != 'j' {
		t.Fatalf("report string: %q", s)
	}
}
