package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"boss/internal/mem"
	"boss/internal/topk"
)

// The serving path's fault-handling policy has no settings. A shard with
// more than one copy retries a failed attempt up to maxRetries times, on
// another copy where one is left, after a jittered exponential backoff of
// backoffBase doubling to backoffMax; a single copy never retries (see
// retryable). Every copy has a circuit breaker that opens after
// breakerThreshold consecutive failures and lets one probe through after
// breakerCooldown. There is no per-attempt timeout: simulated devices answer
// in microseconds of host time, and the parent context's deadline reaches
// every block fetch.
const (
	maxRetries       = 2
	backoffBase      = time.Millisecond
	backoffMax       = 16 * time.Millisecond
	breakerThreshold = 5
	breakerCooldown  = 50 * time.Millisecond
)

// ErrShardUnavailable reports that a shard's circuit breaker rejected
// the attempt without issuing it.
var ErrShardUnavailable = errors.New("pool: shard unavailable (breaker open)")

// ErrShardShed reports that a shard was excluded from a query by the
// front-door serving tier's degradation mask rather than by a fault: the
// query's result is a deliberate partial-shard answer. The shard's bit is
// set in ClusterResult.Degraded exactly like a failed shard's, but the
// breaker and retry machinery never engage.
var ErrShardShed = errors.New("pool: shard shed (front-door degradation)")

// ReplicaStats counts one shard copy's resilience activity since the
// cluster was built: the attempts it served (Successes + Failures), the
// retry backoffs that followed its failures, and its breaker's transitions
// and rejections. For a given fault plan and query order the counts are
// deterministic.
type ReplicaStats struct {
	Successes, Failures, Backoffs                                 int
	BreakerOpens, BreakerHalfOpens, BreakerCloses, BreakerRejects int
}

// breaker states.
const (
	brClosed = iota
	brOpen
	brHalfOpen
)

// breaker is one shard copy's circuit breaker and its counters, under one
// mutex.
type breaker struct {
	mu       sync.Mutex
	state    int
	fails    int
	openedAt time.Time
	probing  bool
	stats    ReplicaStats
}

// allow reports whether an attempt may be issued, applying the
// open → half-open transition after the cooldown.
func (s *breaker) allow(now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case brClosed:
		return true
	case brOpen:
		if now.Sub(s.openedAt) < breakerCooldown {
			s.stats.BreakerRejects++
			return false
		}
		s.state = brHalfOpen
		s.probing = true
		s.stats.BreakerHalfOpens++
		return true
	default: // half-open: one probe in flight at a time
		if s.probing {
			s.stats.BreakerRejects++
			return false
		}
		s.probing = true
		return true
	}
}

// success counts a served attempt and closes the breaker.
func (s *breaker) success() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Successes++
	if s.state != brClosed {
		s.stats.BreakerCloses++
	}
	s.state = brClosed
	s.fails = 0
	s.probing = false
}

// failure counts a failed attempt and opens the breaker when the
// consecutive-failure threshold is reached (immediately in half-open).
// An uncorrectable block is counted as a failure but weighs nothing toward
// the breaker (it only frees a half-open probe claim): it is a fact about
// one block, not about the copy's health, unlike a dead device or
// exhausted transient retries.
func (s *breaker) failure(now time.Time, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Failures++
	if errors.Is(err, mem.ErrMediaUncorrectable) {
		s.probing = false
		return
	}
	if s.state == brHalfOpen {
		s.state = brOpen
		s.openedAt = now
		s.probing = false
		s.stats.BreakerOpens++
		return
	}
	s.fails++
	if s.state == brClosed && s.fails >= breakerThreshold {
		s.state = brOpen
		s.openedAt = now
		s.stats.BreakerOpens++
	}
}

// backedOff counts a backoff that followed one of this copy's failures.
func (s *breaker) backedOff() {
	s.mu.Lock()
	s.stats.Backoffs++
	s.mu.Unlock()
}

// abandon releases a claim on the breaker without recording an outcome,
// for a pick that was never used: a retry whose backoff the context cut
// short. It counts against nothing, but a half-open probe slot claimed at
// selection time must be freed or the replica's breaker would wedge
// half-open forever.
func (s *breaker) abandon() {
	s.mu.Lock()
	s.probing = false
	s.mu.Unlock()
}

// ReplicaStats snapshots the resilience counters of replica ri of shard si.
func (cl *Cluster) ReplicaStats(si, ri int) ReplicaStats {
	s := &cl.reps[si][ri].breaker
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// backoffDelay computes the jittered exponential backoff before retry
// `attempt` (0-based). It is a pure function of (shard, attempt): replays
// back off identically, and no two shards share a jitter stream.
//
//boss:hotpath one call per retried shard attempt.
func backoffDelay(shard, attempt int) time.Duration {
	d := backoffBase
	for i := 0; i < attempt && d < backoffMax; i++ {
		d *= 2
	}
	if d > backoffMax {
		d = backoffMax
	}
	// Jitter in [d/2, d): splitmix64 over the decision coordinates.
	h := splitmix64((uint64(shard)+1)*0x9e3779b97f4a7c15 + uint64(attempt)*0xbf58476d1ce4e5b9)
	half := d / 2
	return half + time.Duration(h%uint64(half))
}

// splitmix64 is the standard 64-bit finalizer (same construction the
// fault injector uses; duplicated here because mem keeps its unexported).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SetFaultPlan applies a fault plan across the cluster: replica ri of
// shard si plays the role of device si*Replicas+ri (with single-copy
// shards that is device si, the historical layout, so existing plans
// keep their meaning). Replicas are independent fault domains — each
// draws from its own injector stream, so one copy's media errors never
// shadow another's. A copy's accelerator and fetch engine share its
// injector; a fetch engine EnsureDocs builds later takes it from the copy.
// A nil or empty plan restores pristine shards. Not safe concurrently with
// queries; meant for setup time.
func (cl *Cluster) SetFaultPlan(plan *mem.FaultPlan) {
	for si := range cl.reps {
		for ri := range cl.reps[si] {
			rep := &cl.reps[si][ri]
			rep.fault = plan.InjectorFor(cl.ReplicaDevice(si, ri))
			rep.acc.SetFault(rep.fault)
			if rep.fetch != nil {
				rep.fetch.SetFault(rep.fault)
			}
		}
	}
}

// retryable reports whether a failed attempt on shard si is retried: on a
// replicated shard up to maxRetries times, never after cancellation. A
// single copy never retries, because the retry would read what the attempt
// read and fail as it did: mem.Injector.BlockFault is a pure function of
// (plan seed, device, key, block, attempt), core restarts the attempt count
// at 0 on every shard attempt, and a dead device stays dead.
func (cl *Cluster) retryable(err error, si, attempt int) bool {
	return len(cl.reps[si]) > 1 && attempt < maxRetries && !errors.Is(err, context.Canceled)
}

// permanent reports a failure that re-reading the same copy cannot cure: an
// uncorrectable block or a dead device. The copy is spent for the request,
// and a retry goes to another copy holding the same blocks.
func permanent(err error) bool {
	return errors.Is(err, mem.ErrMediaUncorrectable) || errors.Is(err, mem.ErrDeviceDown)
}

// attempt issues one attempt of w on replica ri of shard si: the search
// body — w's plan already narrowed to the terms shard si holds (runShard),
// charging the record's metrics for the shard and ranking into its slab
// region — or the fetch body (fetchShard, fetch.go).
func (cl *Cluster) attempt(ctx context.Context, w shardWork, si, ri int) shardOut {
	if w.fetch {
		return cl.fetchShard(ctx, w, si, ri)
	}
	m := &w.rec.ms[si]
	top, err := cl.reps[si][ri].acc.Exec(ctx, w.Plan, w.k, m, w.rec.region(si, w.k))
	if err != nil {
		return shardOut{err: shardError(si, err)}
	}
	return shardOut{m: m, topk: top}
}

// shardError tags an error with its shard. Kept out of line so the attempt
// loop, a hot path, carries no allocation site (hotpathescape).
//
//go:noinline
func shardError(si int, err error) error {
	return fmt.Errorf("pool: shard %d: %w", si, err)
}

// pickReplica chooses the replica serving (query, shard, attempt). The
// rotation start is a pure function of (the query's stable key, the
// shard); the attempt index advances the rotation so
// consecutive attempts land on different copies; and replicas whose
// breakers reject are skipped at selection time, not after a failed
// attempt, as are the copies in spent (bit ri: copy ri already returned
// this request a replica-permanent error). ok is false when no copy is
// left — on a first attempt the all-copies-sick case, which degrades the
// query through the breaker error path.
//
//boss:hotpath one call per (query, shard, attempt).
func (cl *Cluster) pickReplica(si int, qkey uint64, attempt int, spent uint64) (*replica, int, bool) {
	reps := cl.reps[si]
	start := 0
	if len(reps) > 1 { // a single copy needs no draw: its breaker gate is the whole decision
		start = int(replicaDraw(qkey, si) % uint64(len(reps)))
	}
	for p := 0; p < len(reps); p++ {
		ri := (start + attempt + p) % len(reps)
		if spent&(1<<uint(ri)) == 0 && reps[ri].allow(cl.clock.Now()) {
			return &reps[ri], ri, true
		}
	}
	return nil, 0, false
}

// replicaDraw is the deterministic replica-selection hash: a pure
// function of (query key, shard), so replays route identically and no two
// shards share a rotation stream.
func replicaDraw(qkey uint64, si int) uint64 {
	return splitmix64(qkey ^ (uint64(si)+1)*0x94d049bb133111eb)
}

// runShard is the one attempt loop, for searches and fetches alike: the
// front-door mask (a masked-out shard is skipped entirely — no attempt, no
// breaker or retry activity — and reported with ErrShardShed),
// breaker-aware replica selection, bounded retry with jittered backoff,
// parent-context awareness. Both kinds of work share the per-replica breaker
// state, so a copy that fails searches also sheds fetches. A search's plan is
// narrowed to the terms the shard holds here, once for all its attempts; when
// nothing is left the shard has no part in the answer and, like a fetch shard
// that owns none of the requested documents, does nothing: no copy is picked,
// nothing counted, and no breaker hears of a success the device never
// produced. Two asymmetries are deliberate:
//   - the fetch shard with nothing to do is recognised before the mask is
//     looked at, the search shard after it (a masked-out shard is reported
//     shed without its query being examined);
//   - a fetch's replica key is FetchKey of the ids routed to this
//     shard, not of the whole request, so a given shard's share routes to
//     the same copy whatever else the request asked for.
//
// Each attempt runs on the calling goroutine and settles its copy's breaker
// and counters; then the loop returns or retries. A retry's copy is picked
// before its backoff: when none is left — the other breakers reject, and
// re-reading the copy that just returned a replica-permanent error cannot
// succeed (BlockFault is a pure function of key and block) — the loop stops
// with the failure it has.
//
// Error construction is outlined.
//
//boss:hotpath one call per (query, shard).
func (cl *Cluster) runShard(ctx context.Context, w shardWork, si int, mask uint64) shardOut {
	if w.fetch && len(w.rec.ids[si]) == 0 {
		return shardOut{}
	}
	if !maskHas(mask, si) {
		return shardOut{err: shardError(si, ErrShardShed)}
	}
	qkey := w.qkey
	if w.fetch {
		qkey = FetchKey(w.rec.ids[si])
	}
	if cause := ctx.Err(); cause != nil {
		return shardOut{err: shardError(si, cause)}
	}
	if !w.fetch {
		var ok bool
		if w.Plan, ok = w.rec.plans[si].narrow(w.Plan, cl.shards[si]); !ok {
			return shardOut{}
		}
	}
	st, ri, ok := cl.pickReplica(si, qkey, 0, 0)
	if !ok {
		return shardOut{err: shardError(si, ErrShardUnavailable)}
	}
	var spent uint64 // copies that returned this request a replica-permanent error
	for attempt := 0; ; attempt++ {
		out := cl.attempt(ctx, w, si, ri)
		out.ri = ri
		cl.settle(st, out.err)
		if out.err == nil || !cl.retryable(out.err, si, attempt) || ctx.Err() != nil {
			return out
		}
		if permanent(out.err) {
			spent |= 1 << uint(out.ri)
		}
		next, nri, ok := cl.pickReplica(si, qkey, attempt+1, spent)
		if !ok {
			return out
		}
		st.backedOff()
		if cl.clock.Sleep(ctx, backoffDelay(si, attempt)) != nil {
			next.abandon()
			return out // context died during backoff: report the last failure
		}
		st, ri = next, nri
	}
}

// settle records an attempt's adopted outcome against the replica that
// produced it (outlined from the retry loop).
func (cl *Cluster) settle(st *replica, err error) {
	if err == nil {
		st.success()
		return
	}
	st.failure(cl.clock.Now(), err)
}

// fail marks shard si as missing from the result: its Degraded bit and
// its error at ShardErrs[si].
func (res *ClusterResult) fail(si int, err error) {
	res.Degraded |= 1 << uint(si)
	if res.ShardErrs == nil {
		res.ShardErrs = orMake(res.errs, len(res.PerShard))
	}
	res.ShardErrs[si] = err
}

// orMake is buf, or n fresh zero values when buf is nil.
func orMake[T any](buf []T, n int) []T {
	if buf == nil {
		return make([]T, n)
	}
	return buf
}

// mergePartial is the one search fold: per-shard results merge into res's
// root ranking (mergeTopK) — bit-identical however the shard runs were
// scheduled — degrading gracefully: failed shards set their bit in Degraded
// and park their error in ShardErrs instead of failing the query. Only when
// every shard failed does the query itself error. What the result keeps is
// copied out of the outcomes: into res's own storage, and a TopK allocated
// at its final size.
func (cl *Cluster) mergePartial(outs []shardOut, k int, res *ClusterResult) error {
	if cl.Replicas() > 1 {
		// Replica attribution exists only on replicated clusters so
		// single-copy serving pays nothing new.
		res.ServedBy = orMake(res.served, len(outs))
	}
	failed, hits := 0, 0
	var firstErr error
	for si, out := range outs {
		if res.ServedBy != nil {
			if out.err != nil || out.m == nil {
				res.ServedBy[si] = -1
			} else {
				res.ServedBy[si] = out.ri
			}
		}
		if out.err != nil {
			failed++
			if firstErr == nil {
				firstErr = out.err
			}
			res.fail(si, out.err)
			continue
		}
		if out.m == nil {
			continue
		}
		res.addShard(si, out.m)
		hits += len(out.topk)
	}
	if failed == len(outs) && failed > 0 {
		return firstErr
	}
	res.TopK = mergeTopK(make([]topk.Entry, min(hits, k)), outs, cl.offsets)
	return nil
}

// maskHas reports whether shard si participates under a front-door shard
// mask. Mask zero means "no mask" (every shard participates); NewCluster
// caps the shard count at the mask's 64 bits.
func maskHas(mask uint64, si int) bool {
	return mask == 0 || mask&(1<<uint(si)) != 0
}
