package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"boss/internal/compress"
	"boss/internal/corpus"
	"boss/internal/index"
)

// runConfig selects one workload run.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool
	outDir   string
}

// tracedShare is how much of -seconds the traced run spends in the load
// phases; the rest of its time goes to the kernel replays.
const tracedShare = 0.4

// runWorkload runs one workload in this process and returns its report.
func runWorkload(cfg runConfig) (*workloadReport, error) {
	sp, ok := findSpec(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	f := cfg.seconds / refSeconds
	if cfg.traced {
		f *= tracedShare
	}
	sp = sp.scaled(f, cfg.smoke)
	switch {
	case sp.figures || cfg.smoke:
	case cfg.traced:
		sp.replays = 4 // two recorded and two unrecorded replays to compare
	case sp.seqN < minSeqN:
		sp.seqN = minSeqN // svc_p99_us needs ten samples beyond it
	}
	begin := time.Now()
	var w *workloadReport
	var err error
	if sp.figures {
		w, err = runFigures(sp, cfg)
	} else {
		w, err = runServing(sp, cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", cfg.workload, err)
	}
	w.WallS = time.Since(begin).Seconds()
	return w, nil
}

// built is one constructed deployment with the corpus it serves.
type built struct {
	dep  deployment
	c    *corpus.Corpus
	mono *index.Index // facade deployments build one anyway; nil otherwise
	genS float64      // corpus.Generate share of the construction
}

// construct builds the workload's deployment from scratch: corpus
// generation, index/cluster build (document stores and the index file
// round trip where the workload uses them) and the front door.
func construct(sp spec, scale float64, rec *recorder) (built, error) {
	start := time.Now()
	c := corpus.Generate(corpus.ClueWebLike(scale))
	b := built{c: c, genS: time.Since(start).Seconds()}
	var err error
	if sp.sparse {
		b.dep, b.mono, err = newFacade(c)
	} else {
		b.dep, err = newCluster(sp, c, rec)
	}
	return b, err
}

func runServing(sp spec, cfg runConfig) (*workloadReport, error) {
	w := &workloadReport{Name: sp.name, Traced: cfg.traced, Seed: cfg.seed, Phases: map[string]int{}}
	ctx, cancel := context.WithTimeout(context.Background(), wallLimitSec*time.Second)
	defer cancel()
	scale := corpusScale
	if cfg.smoke {
		scale = smokeScale
	}
	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}
	stat0 := readProcStat()

	// setup: construct the deployment setupRounds times, keep the last.
	// Each construction is bracketed by reference samples and reported
	// relative to their mean (see calib.go).
	var b built
	var setupS, setupRawS []float64
	for i := 0; i < setupRounds; i++ {
		if b.dep != nil {
			b.dep.close()
			b = built{}
			runtime.GC()
		}
		before := calibMeanUs(setupCalibSamples)
		start := time.Now()
		var err error
		if b, err = construct(sp, scale, rec); err != nil {
			return nil, err
		}
		raw := time.Since(start).Seconds()
		ref := (before + calibMeanUs(setupCalibSamples)) / 2
		setupRawS = append(setupRawS, raw)
		setupS = append(setupS, raw*setupNominalUs/ref)
	}
	defer func() { b.dep.close() }()

	// The oracle's monolithic index (also what the kernel replays use).
	mono, buildS := b.mono, 0.0
	if mono == nil {
		start := time.Now()
		mono = index.Build(b.c, index.BuildOptions{Scheme: compress.SchemeHybrid})
		buildS = time.Since(start).Seconds()
	}
	stream, distinct, err := buildStream(sp, b.c, cfg.seed)
	if err != nil {
		return nil, err
	}
	or, err := newOracle(sp, b.c, mono, distinct)
	if err != nil {
		return nil, err
	}
	r := &runner{sp: sp, dep: b.dep, or: or, stream: stream, rec: rec, ctx: ctx, failures: map[string]int{}}
	if !cfg.traced {
		// Only the traced run's kernel replays need these; dropping them
		// keeps the benchmark's own tables out of live_heap_mb.
		mono, b.c = nil, nil
	}

	// warm-up: one untimed pass over the stream.
	start := time.Now()
	r.round(len(stream) / unitOps)
	warmupS := time.Since(start).Seconds()
	w.Phases["warmup"] = len(stream) / unitOps * unitOps

	// seq and sat, interleaved replay by replay, so that the replays of
	// one request or unit lie seconds apart and a noisy stretch of the host
	// catches at most one of them. seq is one request in flight through
	// the synchronous call; sat replays the same units through the front
	// door. The traced run records every other sat replay, so its own
	// unrecorded replays price the tracing.
	front0 := b.dep.frontStats()
	cache0, haveCache := b.dep.cacheStats()
	sq := seqResult{bestUs: make([]float64, sp.seqN)}
	var all, recorded, plain []roundResult
	for i := 0; i < sp.replays; i++ {
		rec.maybeOn(true)
		r.seqRound(&sq, i)
		recording := cfg.traced && i%2 == 1
		rec.maybeOn(recording)
		rd := r.round(sp.satUnits)
		all = append(all, rd)
		if recording {
			recorded = append(recorded, rd)
		} else {
			plain = append(plain, rd)
		}
	}
	w.Phases["seq"] = sp.seqN * sp.replays
	satOps := sp.satUnits * unitOps
	w.Phases["sat"] = satOps * sp.replays
	cache1, _ := b.dep.cacheStats()
	heapMiB := liveHeapMiB()

	// open: Poisson arrivals at the workload's fixed rate.
	rec.maybeOn(true)
	openN := int(sp.openRate*sp.openSec + 0.5)
	var openP50, openAll []float64
	var genLag time.Duration
	for s := 0; s < openSlices; s++ {
		qs := make([]*queryInfo, openN)
		for i := range qs {
			qs[i] = stream[(s*openN+i)%len(stream)]
		}
		slice := r.open(qs, poissonSchedule(cfg.seed+int64(s), sp.openRate, openN))
		openP50 = append(openP50, median(slice.latUs)/1e3)
		openAll = append(openAll, slice.latUs...)
		if slice.genLag > genLag {
			genLag = slice.genLag
		}
	}
	rec.maybeOn(false)
	w.Phases["open"] = openSlices * openN
	front1 := b.dep.frontStats()
	stat1 := readProcStat()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("hard wall timeout of %d s hit: %w", wallLimitSec, err)
	}
	w.Attempted, w.Failures = r.attempted, r.failures
	for _, n := range r.failures {
		w.Failed += n
	}

	// End-to-end metrics.
	w.addSummary("setup_s", "s", summarize(setupS))
	w.add("bench.setup_raw_s", "s", median(setupRawS))
	cost := newSatCost(all, satOps)
	spread := summarize(cost.replays)
	w.Metrics = append(w.Metrics, metric{Name: "cpu_us_per_op", Unit: "us", Value: cost.floor, Min: spread.Min, Max: spread.Max, N: spread.N})
	var allocOp, qps []float64
	for _, rd := range all {
		allocOp = append(allocOp, float64(rd.mallocs)/float64(satOps))
		qps = append(qps, float64(satOps)/rd.wall.Seconds())
	}
	w.addSummary("allocs_per_op", "count", summarize(allocOp))
	// Service times relative to the reference samples taken between them.
	seqCalibUs := 0.0
	for _, us := range sq.calibUs {
		seqCalibUs += us / float64(len(sq.calibUs))
	}
	svc := sortedCopy(sq.bestUs)
	for i := range svc {
		svc[i] *= calibNominalUs / seqCalibUs
	}
	p50, _ := percentile(svc, 0.5)
	w.Metrics = append(w.Metrics, metric{Name: "svc_p50_us", Unit: "us", Value: p50, N: len(svc)})
	if p99, ok := percentile(svc, 0.99); ok {
		w.Metrics = append(w.Metrics, metric{Name: "svc_p99_us", Unit: "us", Value: p99, N: len(svc)})
	}
	// The quietest slice's median: a stalled guest only ever adds latency.
	openSlice := summarize(openP50)
	w.Metrics = append(w.Metrics, metric{Name: "open_p50_ms", Unit: "ms", Value: openSlice.Min, Min: openSlice.Min, Max: openSlice.Max, N: openSlice.N})
	w.add("fail_frac", "ratio", float64(w.Failed)/float64(max(w.Attempted, 1)))
	w.add("live_heap_mb", "MiB", heapMiB)
	w.add("sim_us_per_op", "us", sq.sim.latencyUs/float64(sp.seqN))
	w.add("sim_scm_bytes_per_op", "bytes", sq.sim.scmBytes/float64(sp.seqN))

	// Layer metrics every run yields from counters.
	fd := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	w.add("front.batch_size", "count", fd(front1.executed-front0.executed, front1.batches-front0.batches))
	if front1.flushDeadline >= 0 {
		w.add("front.flush_deadline_frac", "ratio", fd(front1.flushDeadline-front0.flushDeadline, front1.batches-front0.batches))
	}
	w.add("front.dedup_frac", "ratio", fd(front1.dedup-front0.dedup, front1.submitted-front0.submitted))
	w.add("front.degraded_frac", "ratio", fd(front1.degraded-front0.degraded, front1.admitted-front0.admitted))
	w.add("front.rejected_frac", "ratio", fd(front1.rejected-front0.rejected, front1.submitted-front0.submitted))
	w.addSummary("front.sat_qps", "1/s", summarize(qps))
	w.add("front.open_p50_ms", "ms", openSlice.Median)
	w.add("front.sat_cpu_us_per_op_raw", "us", cost.raw)
	w.add("bench.cpu_noise_frac", "ratio", fd(cost.raw*calibNominalUs/cost.calibUs, cost.floor)-1)
	w.add("bench.calib_us", "us", cost.calibUs)
	w.add("bench.calib_seq_us", "us", seqCalibUs)
	if p99, ok := percentile(sortedCopy(openAll), 0.99); ok {
		w.Metrics = append(w.Metrics, metric{Name: "front.open_p99_ms", Unit: "ms", Value: p99 / 1e3, N: len(openAll)})
	}
	hitRate := b.dep.postingHitRate()
	if haveCache {
		dHits, dMiss := float64(cache1.PostingHits-cache0.PostingHits), float64(cache1.PostingMisses-cache0.PostingMisses)
		hitRate = fd(dHits, dHits+dMiss)
		if sp.fetch {
			h, m := float64(cache1.DocHits-cache0.DocHits), float64(cache1.DocMisses-cache0.DocMisses)
			w.add("cache.doc_hit_rate", "ratio", fd(h, h+m))
		}
		w.add("cache.evictions_per_op", "count", float64(cache1.Evictions-cache0.Evictions)/float64(satOps*sp.replays))
		w.add("cache.bypasses_per_op", "count", float64(cache1.Bypasses-cache0.Bypasses)/float64(satOps*sp.replays))
		w.add("cache.resident_mb", "MiB", float64(cache1.ResidentBytes)/(1<<20))
		w.add("pool.link_bytes_per_op", "bytes", sq.sim.linkBytes/float64(sp.seqN))
	}
	w.add("cache.posting_hit_rate", "ratio", hitRate)
	w.add("corpus.generate_s", "s", b.genS)
	if !sp.sparse {
		w.add("engine.run_us", "us", or.refRunUs)
	}
	w.add("bench.warmup_s", "s", warmupS)
	w.add("bench.gen_lag_ms_max", "ms", float64(genLag)/1e6)
	w.add("bench.steal_frac", "ratio", stealFrac(stat0, stat1))

	if !cfg.smoke {
		purposeChecks(w, sp, hitRate, cache1.Evictions-cache0.Evictions, cache1.DocMisses-cache0.DocMisses)
	}
	if cfg.traced {
		on, off := newSatCost(recorded, satOps), newSatCost(plain, satOps)
		w.add("bench.trace_overhead_frac", "ratio", fd(on.floor, off.floor)-1)
		w.add("index.build_s", "s", buildS)
		if err := tracedLayers(w, sp, cfg, r, b.c, mono); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// purposeChecks asserts that the workload does what it is for.
func purposeChecks(w *workloadReport, sp spec, hitRate float64, evictions, docMisses int64) {
	switch sp.name {
	case "conj-fit":
		w.check("working set fits", hitRate >= 0.99, "posting hit rate %.4f, want >= 0.99", hitRate)
	case "conj-spill":
		w.check("cache spills", hitRate >= 0.5 && hitRate <= 0.7 && evictions > 0,
			"posting hit rate %.4f (want 0.5-0.7), %d evictions (want > 0)", hitRate, evictions)
	case "search-fetch":
		w.check("classes compete", evictions > 0 && docMisses > 0,
			"%d evictions and %d doc-block misses during sat (want both > 0)", evictions, docMisses)
	}
}

// maybeOn is setOn on a possibly-nil recorder (the untraced run has none).
func (r *recorder) maybeOn(on bool) {
	if r != nil {
		r.setOn(on)
	}
}
