package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"boss/internal/clock"
	"boss/internal/mem"
	"boss/internal/topk"
)

// Resilience configures the cluster's fault-handling policy: bounded
// retry with jittered exponential backoff and a circuit breaker per shard
// copy. Every construction path fills a zero or negative BackoffBase,
// BackoffMax, BreakerThreshold or BreakerCooldown from DefaultResilience;
// MaxRetries and Seed are taken as given, so the zero value retries nothing.
type Resilience struct {
	// MaxRetries is how many times a retryable shard failure is retried
	// (so a shard sees at most MaxRetries+1 attempts). Zero or negative
	// disables retry entirely; it is not filled from DefaultResilience.
	MaxRetries int
	// BackoffBase is the pre-jitter delay before the first retry; it
	// doubles per attempt up to BackoffMax.
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff.
	BackoffMax time.Duration
	// Seed drives backoff jitter. Delays are a pure function of
	// (Seed, shard, attempt), so a replayed plan backs off identically.
	Seed int64
	// BreakerThreshold is the consecutive-failure count that opens a
	// shard's circuit breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects attempts
	// before letting a half-open probe through.
	BreakerCooldown time.Duration
}

// DefaultResilience is the serving default: two retries with 1–16 ms
// jittered backoff, a breaker that opens after 5 consecutive failures
// and probes again after 50 ms. There is no per-attempt timeout:
// simulated devices answer in microseconds of host time, and the parent
// context's deadline reaches every block fetch.
func DefaultResilience() Resilience {
	return Resilience{
		MaxRetries:       2,
		BackoffBase:      time.Millisecond,
		BackoffMax:       16 * time.Millisecond,
		BreakerThreshold: 5,
		BreakerCooldown:  50 * time.Millisecond,
	}
}

// normalize fills the non-positive backoff and breaker fields with their
// defaults. MaxRetries and Seed stay as given.
func (r Resilience) normalize() Resilience {
	def := DefaultResilience()
	if r.BackoffBase <= 0 {
		r.BackoffBase = def.BackoffBase
	}
	if r.BackoffMax <= 0 {
		r.BackoffMax = def.BackoffMax
	}
	if r.BreakerThreshold <= 0 {
		r.BreakerThreshold = def.BreakerThreshold
	}
	if r.BreakerCooldown <= 0 {
		r.BreakerCooldown = def.BreakerCooldown
	}
	return r
}

// ErrShardUnavailable reports that a shard's circuit breaker rejected
// the attempt without issuing it.
var ErrShardUnavailable = errors.New("pool: shard unavailable (breaker open)")

// ErrShardShed reports that a shard was excluded from a query by the
// front-door serving tier's degradation mask rather than by a fault: the
// query's result is a deliberate partial-shard answer. The shard's bit is
// set in ClusterResult.Degraded exactly like a failed shard's, but the
// breaker and retry machinery never engage.
var ErrShardShed = errors.New("pool: shard shed (front-door degradation)")

// EventKind labels one entry in a shard's resilience event log.
type EventKind uint8

const (
	EvAttempt EventKind = iota
	EvFailure
	EvBackoff
	EvBreakerOpen
	EvBreakerHalfOpen
	EvBreakerClose
	EvBreakerReject
)

func (k EventKind) String() string {
	switch k {
	case EvAttempt:
		return "attempt"
	case EvFailure:
		return "failure"
	case EvBackoff:
		return "backoff"
	case EvBreakerOpen:
		return "breaker-open"
	case EvBreakerHalfOpen:
		return "breaker-half-open"
	case EvBreakerClose:
		return "breaker-close"
	case EvBreakerReject:
		return "breaker-reject"
	}
	return "unknown"
}

// Event is one retry/breaker transition on one shard replica. The
// per-replica sequence is deterministic given a fault plan and a query
// order.
type Event struct {
	Shard   int
	Replica int
	Kind    EventKind
	Attempt int
	Backoff time.Duration
	Err     error
}

// breaker states.
const (
	brClosed = iota
	brOpen
	brHalfOpen
)

// eventLogCap bounds each replica's event log. Every clean attempt logs
// one event, so an unbounded log grows with a serving process's lifetime;
// the newest 16Ki events per replica cover every test and the default-scale
// chaos sweep in full.
const eventLogCap = 1 << 14

// shardState is one shard replica's breaker plus its resilience event
// log, under one mutex so log order matches breaker-transition order.
type shardState struct {
	si, ri   int // owning shard and replica, stamped on every event
	mu       sync.Mutex
	state    int
	fails    int
	openedAt time.Time
	probing  bool
	// events is the log: append-only up to eventLogCap, then a ring whose
	// oldest entry sits at oldest.
	events []Event
	oldest int
}

// record logs an event while holding s.mu, dropping the oldest once the
// log is full.
func (s *shardState) record(kind EventKind, attempt int, backoff time.Duration, err error) {
	ev := Event{Shard: s.si, Replica: s.ri, Kind: kind, Attempt: attempt, Backoff: backoff, Err: err}
	if len(s.events) < eventLogCap {
		s.events = append(s.events, ev)
		return
	}
	s.events[s.oldest] = ev
	s.oldest = (s.oldest + 1) % eventLogCap
}

// appendEvents appends the log to dst, oldest first, while holding s.mu.
func (s *shardState) appendEvents(dst []Event) []Event {
	dst = append(dst, s.events[s.oldest:]...)
	return append(dst, s.events[:s.oldest]...)
}

// allow reports whether an attempt may be issued, applying the
// open → half-open transition after the cooldown.
func (s *shardState) allow(now time.Time, cooldown time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case brClosed:
		return true
	case brOpen:
		if now.Sub(s.openedAt) < cooldown {
			s.record(EvBreakerReject, 0, 0, nil)
			return false
		}
		s.state = brHalfOpen
		s.probing = true
		s.record(EvBreakerHalfOpen, 0, 0, nil)
		return true
	default: // half-open: one probe in flight at a time
		if s.probing {
			s.record(EvBreakerReject, 0, 0, nil)
			return false
		}
		s.probing = true
		return true
	}
}

// success closes the breaker.
func (s *shardState) success() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != brClosed {
		s.record(EvBreakerClose, 0, 0, nil)
	}
	s.state = brClosed
	s.fails = 0
	s.probing = false
}

// failure records a failed attempt and opens the breaker when the
// consecutive-failure threshold is reached (immediately in half-open).
// An uncorrectable block is logged but counts for nothing (it only frees a
// half-open probe claim): it is a fact about one block, not about the
// copy's health, unlike a dead device or exhausted transient retries.
func (s *shardState) failure(attempt int, now time.Time, threshold int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.record(EvFailure, attempt, 0, err)
	if errors.Is(err, mem.ErrMediaUncorrectable) {
		s.probing = false
		return
	}
	if s.state == brHalfOpen {
		s.state = brOpen
		s.openedAt = now
		s.probing = false
		s.record(EvBreakerOpen, attempt, 0, nil)
		return
	}
	s.fails++
	if s.state == brClosed && s.fails >= threshold {
		s.state = brOpen
		s.openedAt = now
		s.record(EvBreakerOpen, attempt, 0, nil)
	}
}

// abandon releases a claim on the breaker without recording an outcome,
// for a pick that was never used: a retry whose backoff the context cut
// short. It counts against nothing, but a half-open probe slot claimed at
// selection time must be freed or the replica's breaker would wedge
// half-open forever.
func (s *shardState) abandon() {
	s.mu.Lock()
	s.probing = false
	s.mu.Unlock()
}

// Events snapshots one shard's resilience event log: every replica's
// events (the newest eventLogCap of them) concatenated in replica order
// (identical to the lone replica's log on single-copy clusters).
// ReplicaEvents narrows to one copy.
func (cl *Cluster) Events(si int) []Event {
	var out []Event
	for _, s := range cl.states[si] {
		s.mu.Lock()
		out = s.appendEvents(out)
		s.mu.Unlock()
	}
	return out
}

// ReplicaEvents snapshots one shard replica's resilience event log.
func (cl *Cluster) ReplicaEvents(si, ri int) []Event {
	s := cl.states[si][ri]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendEvents(nil)
}

// initResilience wires the cluster's resilience machinery; called from
// NewCluster and Fresh.
func (cl *Cluster) initResilience(r Resilience) {
	cl.res = r.normalize()
	cl.states = make([][]*shardState, len(cl.shards))
	for si := range cl.states {
		reps := make([]*shardState, cl.Replicas())
		for ri := range reps {
			reps[ri] = &shardState{si: si, ri: ri}
		}
		cl.states[si] = reps
	}
	cl.clock = cl.cfg.Clock
	if cl.clock == nil {
		cl.clock = clock.Wall()
	}
}

// backoffDelay computes the jittered exponential backoff before retry
// `attempt` (0-based). It is a pure function of (seed, shard, attempt):
// replays back off identically, and no two shards share a jitter stream.
//
//boss:hotpath one call per retried shard attempt.
func (r Resilience) backoffDelay(shard, attempt int) time.Duration {
	d := r.BackoffBase
	for i := 0; i < attempt && d < r.BackoffMax; i++ {
		d *= 2
	}
	if d > r.BackoffMax {
		d = r.BackoffMax
	}
	// Jitter in [d/2, d): splitmix64 over the decision coordinates.
	h := splitmix64(uint64(r.Seed) ^ (uint64(shard)+1)*0x9e3779b97f4a7c15 + uint64(attempt)*0xbf58476d1ce4e5b9)
	half := d / 2
	if half <= 0 {
		return d
	}
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
// shadow another's. A nil or empty plan restores pristine shards. Not
// safe concurrently with queries; meant for setup time.
func (cl *Cluster) SetFaultPlan(plan *mem.FaultPlan) {
	cl.faultPlan = plan
	for si, reps := range cl.accs {
		for ri, acc := range reps {
			acc.SetFault(plan.InjectorFor(cl.ReplicaDevice(si, ri)))
		}
	}
	// Fetch engines are built lazily; wire the ones that exist and retain
	// the plan so EnsureDocs wires the rest at build time.
	for si, reps := range cl.fetchers {
		for ri, eng := range reps {
			eng.SetFault(plan.InjectorFor(cl.ReplicaDevice(si, ri)))
		}
	}
}

// retryable reports whether a shard failure is worth retrying on the
// same copy: transient read errors are; permanent media errors, dead
// devices, and parent-context cancellation are not.
func retryable(err error) bool {
	switch {
	case errors.Is(err, mem.ErrMediaUncorrectable):
		return false
	case errors.Is(err, mem.ErrDeviceDown):
		return false
	case errors.Is(err, context.Canceled):
		return false
	default:
		return true
	}
}

// retryableOn is retryable under replication: failures that are
// permanent for one copy (uncorrectable media, dead device) stay
// retryable on replicated shards, because the retry goes to a different
// copy holding the same blocks (runShard never re-issues on the copy that
// returned the error). Context cancellation is never retryable.
func (cl *Cluster) retryableOn(err error, si int) bool {
	if retryable(err) {
		return true
	}
	return len(cl.states[si]) > 1 && !errors.Is(err, context.Canceled)
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
	top, err := cl.accs[si][ri].Exec(ctx, w.Plan, w.k, m, w.rec.region(si, w.k))
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
// rotation start is a pure function of (Resilience.Seed, the query's
// stable key, the shard); the attempt index advances the rotation so
// consecutive attempts land on different copies; and replicas whose
// breakers reject are skipped at selection time, not after a failed
// attempt, as are the copies in spent (bit ri: copy ri already returned
// this request a replica-permanent error). ok is false when no copy is
// left — on a first attempt the all-copies-sick case, which degrades the
// query through the breaker error path.
//
//boss:hotpath one call per (query, shard, attempt).
func (cl *Cluster) pickReplica(si int, qkey uint64, attempt int, spent uint64) (*shardState, int, bool) {
	sts := cl.states[si]
	start := 0
	if len(sts) > 1 { // a single copy needs no draw: its breaker gate is the whole decision
		start = int(replicaDraw(uint64(cl.res.Seed), qkey, si) % uint64(len(sts)))
	}
	for p := 0; p < len(sts); p++ {
		ri := (start + attempt + p) % len(sts)
		if spent&(1<<uint(ri)) == 0 && sts[ri].allow(cl.clock.Now(), cl.res.BreakerCooldown) {
			return sts[ri], ri, true
		}
	}
	return nil, 0, false
}

// replicaDraw is the deterministic replica-selection hash: a pure
// function of (seed, query key, shard), so replays route identically
// and no two shards share a rotation stream.
func replicaDraw(seed, qkey uint64, si int) uint64 {
	return splitmix64(seed ^ qkey ^ (uint64(si)+1)*0x94d049bb133111eb)
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
// no event logged, and no breaker hears of a success the device never
// produced. Two asymmetries are deliberate:
//   - the fetch shard with nothing to do is recognised before the mask is
//     looked at, the search shard after it (a masked-out shard is reported
//     shed without its query being examined);
//   - a fetch's replica key is FetchKey of the ids routed to this
//     shard, not of the whole request, so a given shard's share routes to
//     the same copy whatever else the request asked for.
//
// Each attempt runs on the calling goroutine and settles its copy's breaker;
// then the loop returns or retries. A retry's copy is picked before its
// backoff: when none is left — the other breakers reject, and re-reading the
// copy that just returned a replica-permanent error cannot succeed
// (BlockFault is a pure function of key and block) — the loop stops with the
// failure it has.
//
// Event recording and error construction are outlined.
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
		logEvent(st, EvAttempt, attempt, 0)
		out := cl.attempt(ctx, w, si, ri)
		out.ri = ri
		cl.settle(st, out.err, attempt)
		if out.err == nil || attempt >= cl.res.MaxRetries || !cl.retryableOn(out.err, si) || ctx.Err() != nil {
			return out
		}
		if !retryable(out.err) {
			spent |= 1 << uint(out.ri)
		}
		next, nri, ok := cl.pickReplica(si, qkey, attempt+1, spent)
		if !ok {
			return out
		}
		d := cl.res.backoffDelay(si, attempt)
		logEvent(st, EvBackoff, attempt, d)
		if cl.clock.Sleep(ctx, d) != nil {
			next.abandon()
			return out // context died during backoff: report the last failure
		}
		st, ri = next, nri
	}
}

// settle records an attempt's adopted outcome against the replica that
// produced it (outlined from the retry loop).
func (cl *Cluster) settle(st *shardState, err error, attempt int) {
	if err == nil {
		st.success()
		return
	}
	st.failure(attempt, cl.clock.Now(), cl.res.BreakerThreshold, err)
}

// logEvent records one event on a replica's log; outlined from the retry
// loop so the hot path stays free of composite construction.
func logEvent(st *shardState, kind EventKind, attempt int, backoff time.Duration) {
	st.mu.Lock()
	st.record(kind, attempt, backoff, nil)
	st.mu.Unlock()
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
