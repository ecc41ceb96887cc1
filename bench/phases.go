package main

import (
	"context"
	"math/rand"
	"time"
)

// runner drives one constructed deployment through the measured phases.
// Load comes from one goroutine in the lockstep phases and from one
// generator plus one collector goroutine in the open loop — never more
// client threads than the 2-core reference box has cores.
type runner struct {
	sp     spec
	dep    deployment
	or     *oracle
	stream []*queryInfo
	rec    *recorder       // nil in the untraced run
	ctx    context.Context // carries the hard wall deadline

	attempted int
	failures  map[string]int // by reason; see oracle.go
}

// count records one finished op.
func (r *runner) count(reason string) {
	r.attempted++
	if reason != okResult {
		r.failures[reason]++
	}
}

// inflight is one submitted front-door request.
type inflight struct {
	t     ticket
	q     *queryInfo
	ids   []uint32  // non-nil: the fetch leg of a search-fetch chain
	start time.Time // open loop: the op's due time
	reqID int       // request span id; 0 when not recording
	err   error     // Submit refused the request
}

// submit sends one front-door request, recording the request and
// front.submit spans when the recorder is on.
func (r *runner) submit(q *queryInfo, ids []uint32, start time.Time) inflight {
	it := inflight{q: q, ids: ids, start: start}
	expr, k := q.expr, q.k
	if ids != nil {
		expr, k = "", 0
	}
	if r.rec == nil || !r.rec.enabled() {
		it.t, it.err = r.dep.submit(expr, ids, k)
		return it
	}
	t0 := time.Now()
	it.t, it.err = r.dep.submit(expr, ids, k)
	t1 := time.Now()
	key := q.canon
	if ids != nil {
		key = requestKey("", ids)
	}
	it.reqID = r.rec.add(span{Name: spanRequest, Start: r.rec.since(t0), key: key})
	r.rec.add(span{Name: spanSubmit, Parent: it.reqID, Start: r.rec.since(t0), End: r.rec.since(t1)})
	return it
}

// await waits for one submitted request and classifies its result.
func (r *runner) await(it inflight) (delivered, string) {
	if it.err != nil {
		return delivered{}, failRejected
	}
	d := it.t.wait(r.ctx)
	if it.reqID != 0 {
		r.rec.setEnd(it.reqID, r.rec.since(time.Now()))
	}
	if it.ids != nil {
		return d, r.or.checkDocs(it.ids, d)
	}
	return d, r.or.checkSearch(it.q, d)
}

// unit sends one batch-sized group of requests through the front door in
// lockstep — submit them all, flush, wait for them all (and, for a
// search-fetch chain, the same again for the fetch legs) — and returns the
// process CPU the unit cost. A unit is unitOps requests, the front door's
// batch size target, so it flushes by size as saturated traffic does; it
// is also a few milliseconds of work, short enough that some replays of
// it land between the host's noise bursts (see README, "Steadiness").
func (r *runner) unit(qs []*queryInfo, legs []inflight) (cpuUs float64) {
	cpu0 := cpuMicros()
	legs = legs[:0]
	for _, q := range qs {
		legs = append(legs, r.submit(q, nil, time.Time{}))
	}
	r.dep.flush()
	fetches := legs[len(legs):]
	for _, it := range legs {
		d, reason := r.await(it)
		if reason == okResult && r.sp.fetch && len(d.topk) > 0 {
			fetches = append(fetches, r.submit(it.q, hitIDs(d.topk), time.Time{}))
			continue
		}
		r.count(reason)
	}
	if len(fetches) > 0 {
		r.dep.flush()
		for _, it := range fetches {
			_, reason := r.await(it)
			r.count(reason)
		}
	}
	return cpuMicros() - cpu0
}

// calibPoints is how many reference-computation samples one replay of the
// sat units or of the seq requests takes, evenly spaced through it.
const calibPoints = 128

// roundResult is one replay of the sat phase's units.
type roundResult struct {
	unitCPU  []float64 // process CPU of each unit, microseconds
	calibCPU []float64 // process CPU of each reference sample, microseconds
	wall     time.Duration
	mallocs  uint64
}

// calibEvery spaces calibPoints reference samples over n items.
func calibEvery(n int) int { return max(1, n/calibPoints) }

// round replays units [0, n) of the stream once, timing a reference sample
// after every calibEvery(n)-th unit.
func (r *runner) round(n int) roundResult {
	res := roundResult{unitCPU: make([]float64, n)}
	legs := make([]inflight, 0, 2*unitOps)
	every := calibEvery(n)
	m0 := mallocs()
	begin := time.Now()
	for u := 0; u < n; u++ {
		res.unitCPU[u] = r.unit(r.unitQueries(u), legs)
		if (u+1)%every == 0 {
			cpu0 := cpuMicros()
			calibWork()
			res.calibCPU = append(res.calibCPU, cpuMicros()-cpu0)
		}
	}
	res.wall = time.Since(begin)
	res.mallocs = mallocs() - m0
	return res
}

// unitQueries is the stream slice unit u replays.
func (r *runner) unitQueries(u int) []*queryInfo {
	lo := (u * unitOps) % len(r.stream)
	hi := min(lo+unitOps, len(r.stream))
	return r.stream[lo:hi]
}

// floorSum is the noise-robust total of replayed measurements:
// samples[replay][item], each item's cheapest replay, summed. raw is the
// plain sum over every replay divided by the replay count.
func floorSum(samples [][]float64) (floor, raw float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	for i := range samples[0] {
		best := samples[0][i]
		for _, replay := range samples {
			raw += replay[i]
			best = min(best, replay[i])
		}
		floor += best
	}
	return floor, raw / float64(len(samples))
}

// satCost is the sat phase reduced to CPU per op.
type satCost struct {
	// floor is each unit's cheapest replay, summed, per op, relative to
	// the reference samples' floor over the same replays (see calib.go):
	// the gated cpu_us_per_op.
	floor float64
	// replays is each single replay's CPU per op relative to that replay's
	// own reference samples: the spread -compare judges the floor by.
	replays []float64
	raw     float64 // plain mean over every replay, unnormalised
	calibUs float64 // the reference floor itself: the host's speed
}

func newSatCost(rounds []roundResult, ops int) satCost {
	if len(rounds) == 0 || ops == 0 {
		return satCost{}
	}
	units := make([][]float64, len(rounds))
	calib := make([][]float64, len(rounds))
	var sc satCost
	for i, rd := range rounds {
		units[i], calib[i] = rd.unitCPU, rd.calibCPU
		unitSum, _ := floorSum(units[i : i+1])
		calibSum, _ := floorSum(calib[i : i+1])
		sc.replays = append(sc.replays, unitSum/float64(ops)*calibNominalUs/(calibSum/float64(len(rd.calibCPU))))
	}
	unitFloor, unitRaw := floorSum(units)
	calibFloor, _ := floorSum(calib)
	sc.calibUs = calibFloor / float64(len(calib[0]))
	sc.floor = unitFloor / float64(ops) * calibNominalUs / sc.calibUs
	sc.raw = unitRaw / float64(ops)
	return sc
}

// openResult is one slice of open-loop load.
type openResult struct {
	latUs  []float64     // due time to delivery, microseconds
	genLag time.Duration // the latest the generator ran
}

// open drives the stream queries qs through the front door as an open
// loop: op i is due at start+sched[i], the generator wakes on a 1 ms
// sleep tick (no spinning: it shares two cores with the server), and
// latency counts from the due time, so a generator stall shows as
// latency and in genLag.
func (r *runner) open(qs []*queryInfo, sched []time.Duration) openResult {
	n := len(qs)
	// Buffered for the whole slice, so a slow collector never stalls the
	// generator.
	ch := make(chan inflight, n)
	res := openResult{latUs: make([]float64, 0, n)}
	begin := time.Now()
	go func() {
		defer close(ch)
		for i := 0; i < n; {
			now := time.Now()
			for i < n && !begin.Add(sched[i]).After(now) {
				due := begin.Add(sched[i])
				if lag := time.Since(due); lag > res.genLag {
					res.genLag = lag
				}
				ch <- r.submit(qs[i], nil, due)
				i++
			}
			if i < n {
				if r.ctx.Err() != nil {
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()

	// Collector: waits tickets in submission order. Fetch legs are
	// submitted here and queued behind everything the generator has
	// already submitted, which keeps the queue in time order.
	var dq []inflight
	closed := false
	drain := func(block bool) {
		for !closed {
			if block {
				it, ok := <-ch
				if !ok {
					closed = true
					return
				}
				dq = append(dq, it)
				block = false
				continue
			}
			select {
			case it, ok := <-ch:
				if !ok {
					closed = true
					return
				}
				dq = append(dq, it)
			default:
				return
			}
		}
	}
	for head := 0; ; {
		drain(head == len(dq))
		if head == len(dq) {
			break // generator done and nothing outstanding
		}
		it := dq[head]
		dq[head] = inflight{}
		head++
		d, reason := r.await(it)
		if it.ids == nil && reason == okResult && r.sp.fetch && len(d.topk) > 0 {
			drain(false)
			dq = append(dq, r.submit(it.q, hitIDs(d.topk), it.start))
			continue
		}
		r.count(reason)
		res.latUs = append(res.latUs, float64(time.Since(it.start))/1e3)
	}
	return res
}

// poissonSchedule returns n arrival offsets of a Poisson process at rate
// per second, drawn from seed: independent users, so an open loop.
func poissonSchedule(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	sched := make([]time.Duration, n)
	var t float64
	for i := range sched {
		t += rng.ExpFloat64() / rate
		sched[i] = time.Duration(t * float64(time.Second))
	}
	return sched
}

// seqResult is the one-in-flight phase.
type seqResult struct {
	bestUs  []float64 // per request: the fastest of its replays
	calibUs []float64 // per reference sample: the fastest of its replays
	sim     simCost   // exact simulated counters, summed over one replay
}

// seqRound sends the first len(res.bestUs) stream requests one at a time
// through the deployment's synchronous call. A request's service time is
// the fastest of its replays: the host's noise only ever adds. Reference
// samples are timed in between and reduced the same way. The first replay
// (round 0) also sums the simulated counters.
func (r *runner) seqRound(res *seqResult, round int) {
	recording := r.rec != nil && r.rec.enabled()
	every := calibEvery(len(res.bestUs))
	point := 0
	for i := range res.bestUs {
		if (i+1)%every == 0 {
			// A wall-clock reference sample, like the latencies around it.
			t0 := time.Now()
			calibWork()
			us := float64(time.Since(t0)) / 1e3
			if round == 0 {
				res.calibUs = append(res.calibUs, us)
			} else {
				res.calibUs[point] = min(res.calibUs[point], us)
			}
			point++
		}
		q := r.stream[i%len(r.stream)]
		t0 := time.Now()
		d, sc := r.dep.direct(r.ctx, q)
		t1 := time.Now()
		if us := float64(t1.Sub(t0)) / 1e3; round == 0 || us < res.bestUs[i] {
			res.bestUs[i] = us
		}
		if round == 0 {
			res.sim.latencyUs += sc.latencyUs
			res.sim.scmBytes += sc.scmBytes
			res.sim.linkBytes += sc.linkBytes
		}
		reason := r.or.checkSearch(q, d)
		if reason == okResult && r.sp.fetch {
			reason = r.or.checkDocs(hitIDs(d.topk), d)
		}
		r.count(reason)
		if recording {
			r.rec.add(span{Name: spanDirect, Start: r.rec.since(t0), End: r.rec.since(t1)})
		}
	}
}
