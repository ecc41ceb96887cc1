// Package front is the front-door serving tier over the pooled-memory
// cluster: a bounded async admission queue feeding deadline-aware batch
// formation, singleflight deduplication of identical concurrent queries,
// and per-tenant token buckets with priority-aware load shedding that
// degrades to partial-shard answers before rejecting outright.
//
// The tier exists because the paper's device model is batch-hungry — the
// cluster's resilient batch path amortizes fan-out over many in-flight
// queries — while serving traffic arrives one request at a time. The
// front door converts the arrival stream into well-formed batches without
// letting any admitted request blow its deadline: requests accumulate
// until either the batch size target is reached or the earliest admitted
// deadline's slack budget forces a flush.
//
// Hot-path discipline: admission and dedup-attach run under one mutex
// with no allocation in steady state — waiter lists are intrusive and
// arena'd, the pending queue is an open-coded intrusive list, flights,
// tickets, and batches recycle through free lists, and the flush timer is
// a single persistent handle that is only ever Reset. Every batching and
// shedding decision is a pure function of (config, arrival sequence,
// clock readings), so tests drive a clock.FakeClock and assert
// byte-identical decision logs across runs.
package front

import (
	"context"
	"errors"
	"slices"
	"strconv"
	"sync"
	"time"

	"boss/internal/clock"
	"boss/internal/pool"
	"boss/internal/query"
	"boss/internal/topk"
)

// Priority orders requests for the shedding ladder: when capacity runs
// short, Low sheds first and High degrades last. The zero value is
// Normal.
type Priority uint8

// Request priorities.
const (
	PriNormal Priority = iota
	PriLow
	PriHigh
)

// Typed admission errors.
var (
	// ErrShed reports that a low-priority request was shed because its
	// tenant's token bucket was empty. The request never executed.
	ErrShed = errors.New("front: request shed (tenant over rate)")
	// ErrOverloaded reports that the admission queue was at capacity.
	ErrOverloaded = errors.New("front: overloaded (admission queue full)")
	// ErrClosed reports a Submit after Close.
	ErrClosed = errors.New("front: closed")
	// ErrMixedRequest reports a request carrying both a query expression
	// and a document-fetch id list; a request is one or the other.
	ErrMixedRequest = errors.New("front: request carries both Expr and FetchIDs")
)

// TenantConfig is one tenant's token bucket: Rate tokens per second with
// a Burst ceiling. A request costs one token.
type TenantConfig struct {
	Rate  float64
	Burst float64
}

// Config tunes the front door. The zero value gets serving defaults.
type Config struct {
	// BatchTarget is the pending-flight count that triggers a size
	// flush (default 16).
	BatchTarget int
	// MaxQueue bounds flights in the system (pending + executing);
	// beyond it Submit returns ErrOverloaded (default 256).
	MaxQueue int
	// Timeout is the deadline budget assigned to requests that arrive
	// without one (default 10ms).
	Timeout time.Duration
	// FlushSlack is how far before the earliest admitted deadline the
	// pending batch is force-flushed (default 2ms).
	FlushSlack time.Duration
	// DegradeWatermark is the fill fraction of MaxQueue beyond which
	// non-High admissions degrade to partial-shard execution
	// (default 0.75; ≥ 1 disables pressure degradation).
	DegradeWatermark float64
	// DegradeShards is how many shards a degraded query drops
	// (default: half the backend's shards, at least one). A one-shard
	// backend cannot degrade; degraded admissions execute in full.
	DegradeShards int
	// Tenants configures per-tenant token buckets; tenants absent from
	// the map are not rate-limited.
	Tenants map[string]TenantConfig
	// Clock supplies time; nil uses the wall clock. Tests inject a
	// clock.FakeClock to make batching decisions reproducible.
	Clock clock.Clock
	// Recorder, when non-nil, captures the decision log (tests only:
	// recording allocates).
	Recorder *Recorder
}

// withDefaults resolves zero fields to serving defaults.
func (c Config) withDefaults() Config {
	if c.BatchTarget <= 0 {
		c.BatchTarget = 16
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Millisecond
	}
	if c.FlushSlack <= 0 {
		c.FlushSlack = 2 * time.Millisecond
	}
	if c.DegradeWatermark <= 0 {
		c.DegradeWatermark = 0.75
	}
	if c.Clock == nil {
		c.Clock = clock.Wall()
	}
	return c
}

// Request is one serving request: either a search (Expr) or a document
// fetch (FetchIDs), never both.
type Request struct {
	// Expr is the boolean query expression.
	Expr string
	// FetchIDs, when non-empty, makes this a document-fetch request:
	// the payloads for these docIDs are returned in Result.Docs. Fetches
	// ride the same admission ladder, dedup map, and batch former as
	// queries — concurrent identical id lists coalesce onto one
	// execution, and degraded admissions shed masked shards' documents.
	// Mutually exclusive with Expr.
	FetchIDs []uint32
	// K is the top-k depth (<= 0 uses the backend's default).
	K int
	// Tenant names the token bucket the request draws from; unknown
	// tenants are not rate-limited.
	Tenant string
	// Priority places the request on the shedding ladder.
	Priority Priority
	// Deadline is when the answer stops being useful (zero: now +
	// Config.Timeout). The batch former flushes early enough that the
	// earliest admitted deadline keeps FlushSlack of headroom.
	Deadline time.Time
}

// Result is one request's outcome.
type Result struct {
	// TopK is the merged ranking (shared by every coalesced waiter; do
	// not mutate).
	TopK []topk.Entry
	// Docs holds the fetched document payloads for a FetchIDs request,
	// aligned with the submitted id list (shared by every coalesced
	// waiter; do not mutate). Nil for search requests.
	Docs []pool.FetchedDoc
	// Degraded is the bitmask of shards missing from TopK, whether
	// shed by admission or failed in the backend. Zero means complete.
	Degraded uint64
	// DedupHit reports that this request coalesced onto another
	// in-flight execution instead of admitting its own.
	DedupHit bool
	// Err is the execution error, if any (also returned by Search).
	Err error
}

// flightKey identifies coalescible executions: same canonical DNF, same
// top-k depth, same shard mask. Requests differing only in term order,
// duplication, or distribution share a key. A fetch's canon is fetchTag and
// ids its id list's hash (pool.FetchKey), so building the key allocates
// nothing; a fetch joins a flight under its key only when the flight's own
// id list is equal (twinLocked).
type flightKey struct {
	canon string
	ids   uint64
	k     int
	mask  uint64
}

// Ticket is one waiter's handle on an admitted (or coalesced) request.
// Exactly one of Wait or Cancel must be called; both recycle the ticket.
type Ticket struct {
	f         *Front
	fl        *flight
	done      chan struct{} // cap 1, never closed; reused across leases
	res       Result
	dedup     bool
	delivered bool
	prev      *Ticket // intrusive waiter list on the flight
	next      *Ticket // doubles as the free-list link when pooled
}

// flight is one deduplicated execution: every concurrently-submitted
// request with the same flightKey attaches to the same flight, which
// executes once and fans its result out to all waiters.
type flight struct {
	key      flightKey
	expr     string          // representative expression to execute
	prep     *query.Prepared // expr prepared: the key cache's value (nil for a fetch)
	fetchIDs []uint32        // non-empty: a document-fetch flight (expr is empty)
	deadline time.Time       // earliest deadline among waiters
	waiters  *Ticket
	nwait    int
	pending  bool
	keyed    bool    // the flights map holds it under key (see Submit)
	prev     *flight // intrusive pending queue
	next     *flight // doubles as the free-list link when pooled
}

// batch is one formed batch on its way to the backend.
type batch struct {
	qs      []pool.BatchQuery
	outs    []Out
	flights []*flight
	free    *batch
}

// keyEntry caches one expression's preparation — or its refusal — so
// repeated submissions of the same expression never parse again.
type keyEntry struct {
	prep *query.Prepared
	err  error
}

// bucket is one tenant's token bucket, refilled lazily off the clock.
type bucket struct {
	tokens float64
	rate   float64
	burst  float64
	last   time.Time
}

// Flush-trigger reasons.
const (
	flushSize = iota
	flushDeadline
	flushManual
)

// Front is the front-door serving tier. Construct with New; all methods
// are safe for concurrent use.
type Front struct {
	cfg       Config
	be        Backend
	clock     clock.Clock
	rec       *Recorder
	shards    int
	dropN     int     // shards dropped per degraded admission
	watermark float64 // inSystem threshold for pressure degradation
	// fetchHash is a fetch key's hash of its id list: pool.FetchKey, which
	// a test replaces before the first Submit to make different lists
	// collide.
	fetchHash func([]uint32) uint64

	mu         sync.Mutex
	closed     bool
	keys       map[string]keyEntry
	flights    map[flightKey]*flight
	buckets    map[string]*bucket
	pendHead   *flight
	pendTail   *flight
	npending   int // flights in the pending queue
	inSystem   int // pending + batched-but-uncompleted flights
	timer      clock.Timer
	timerAt    time.Time // zero: unarmed
	degradeRot int
	m          Metrics

	freeTickets *Ticket
	freeFlights *flight
	freeBatches *batch

	execCh chan *batch
	wg     sync.WaitGroup
}

// New builds a front door over the backend and starts its executor.
func New(cfg Config, be Backend) (*Front, error) {
	if be == nil {
		return nil, errors.New("front: nil backend")
	}
	cfg = cfg.withDefaults()
	f := &Front{
		cfg:       cfg,
		be:        be,
		clock:     cfg.Clock,
		rec:       cfg.Recorder,
		fetchHash: pool.FetchKey,
		shards:    be.Shards(),
		keys:      make(map[string]keyEntry),
		flights:   make(map[flightKey]*flight),
		buckets:   make(map[string]*bucket, len(cfg.Tenants)),
		// Capacity invariant: each batch holds ≥ 1 flight and admission
		// bounds flights in the system at MaxQueue, so at most MaxQueue
		// batches can be queued — the flush path's send never blocks
		// while holding the mutex.
		execCh: make(chan *batch, cfg.MaxQueue+1),
	}
	bits := f.shards
	if bits > 64 {
		bits = 64
	}
	f.dropN = cfg.DegradeShards
	if f.dropN <= 0 {
		f.dropN = bits / 2
	}
	if f.dropN >= bits {
		f.dropN = bits - 1
	}
	f.watermark = cfg.DegradeWatermark * float64(cfg.MaxQueue)
	now := f.clock.Now()
	for name, tc := range cfg.Tenants {
		burst := tc.Burst
		if burst <= 0 {
			burst = tc.Rate
		}
		f.buckets[name] = &bucket{tokens: burst, rate: tc.Rate, burst: burst, last: now}
	}
	// One persistent timer, armed lazily; the hot path only ever Resets it.
	f.timer = f.clock.AfterFunc(time.Hour, f.onTimer)
	f.timer.Stop()
	f.wg.Add(1)
	go f.runExecutor()
	return f, nil
}

// Submit admits one request, returning a Ticket to wait on. It applies
// the full ladder in order: coalesce onto an identical in-flight twin
// (always free, bypasses admission); shed or degrade on an empty tenant
// bucket (Low sheds with ErrShed, others degrade); reject with
// ErrOverloaded at queue capacity; degrade non-High requests past the
// pressure watermark; otherwise admit a fresh flight.
//
//boss:hotpath one call per serving request; tickets, flights, and batches recycle through free lists, so steady state allocates nothing.
func (f *Front) Submit(req Request) (*Ticket, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrClosed
	}
	canon, prep, err := f.prepareLocked(&req)
	if err != nil {
		f.mu.Unlock()
		return nil, err
	}
	f.m.Submitted++
	k := req.K
	if k < 0 {
		k = 0
	}
	key := flightKey{canon: canon, k: k}
	// logKey is what the decision log records: canon for a search, the
	// rendered id list for a fetch, which only a recorder pays for.
	logKey := canon
	if len(req.FetchIDs) > 0 {
		f.m.Fetches++
		key.ids = f.fetchHash(req.FetchIDs)
		if f.rec != nil {
			logKey = fetchCanon(req.FetchIDs)
		}
	}
	now := f.clock.Now()
	deadline := req.Deadline
	if deadline.IsZero() {
		deadline = now.Add(f.cfg.Timeout)
	}

	// Dedup first: attaching to a full-quality twin costs nothing, so it
	// is checked before any admission bound.
	fl, taken := f.twinLocked(key, req.FetchIDs)
	if fl != nil {
		t := f.attachLocked(fl, deadline, true)
		f.recordLocked(DAttach, req.Tenant, logKey, 0)
		f.mu.Unlock()
		return t, nil
	}

	// Admission ladder.
	degrade := false
	if b := f.buckets[req.Tenant]; b != nil && !takeToken(b, now) {
		if req.Priority == PriLow {
			f.m.ShedTokens++
			f.recordLocked(DShedTokens, req.Tenant, logKey, 0)
			f.mu.Unlock()
			return nil, ErrShed
		}
		degrade = true
		f.recordLocked(DDegradeTokens, req.Tenant, logKey, 0)
	}
	if f.inSystem >= f.cfg.MaxQueue {
		f.m.RejectedFull++
		f.recordLocked(DRejectFull, req.Tenant, logKey, 0)
		f.mu.Unlock()
		return nil, ErrOverloaded
	}
	if !degrade && req.Priority != PriHigh && float64(f.inSystem) >= f.watermark {
		degrade = true
		f.recordLocked(DDegradePressure, req.Tenant, logKey, 0)
	}
	var mask uint64
	if degrade {
		mask = f.degradeMaskLocked()
		if mask != 0 {
			// A degraded twin with the same rotation coalesces too.
			key.mask = mask
			if fl, taken = f.twinLocked(key, req.FetchIDs); fl != nil {
				t := f.attachLocked(fl, deadline, true)
				f.recordLocked(DAttach, req.Tenant, logKey, 0)
				f.mu.Unlock()
				return t, nil
			}
		}
	}

	fl = f.getFlightLocked() //boss:escape-ok free-list miss inside inlined getFlightLocked
	fl.key = key
	fl.expr = req.Expr
	fl.prep = prep
	fl.fetchIDs = append(fl.fetchIDs[:0], req.FetchIDs...)
	fl.deadline = deadline
	// A fetch whose key a different id list's flight holds runs on its
	// own: out of the map it coalesces nothing, and retiring it leaves the
	// holder's entry alone.
	if fl.keyed = !taken; fl.keyed {
		f.flights[key] = fl
	}
	f.pushPendingLocked(fl)
	f.m.Admitted++
	if mask != 0 {
		f.m.Degraded++
	}
	t := f.attachLocked(fl, deadline, false)
	f.recordLocked(DAdmit, req.Tenant, logKey, 0)
	if f.npending >= f.cfg.BatchTarget {
		f.flushLocked(flushSize)
	} else {
		f.armTimerLocked(deadline)
	}
	f.mu.Unlock()
	return t, nil
}

// Flush force-flushes the pending batch (examples and tests; production
// flushes ride the size target and the deadline timer).
func (f *Front) Flush() {
	f.mu.Lock()
	if !f.closed {
		f.flushLocked(flushManual)
	}
	f.mu.Unlock()
}

// Close flushes pending work, waits for the executor to drain, and
// rejects further Submits with ErrClosed. Waiters already holding
// tickets are all delivered.
func (f *Front) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.flushLocked(flushManual)
	f.closed = true
	f.mu.Unlock()
	close(f.execCh)
	f.wg.Wait()
	f.timer.Stop()
}

// Metrics snapshots the counters.
func (f *Front) Metrics() Metrics {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.m
}

// Wait blocks until the result is delivered or ctx dies (nil ctx waits
// unconditionally). Either way the ticket is recycled; use it only once.
func (t *Ticket) Wait(ctx context.Context) Result {
	if ctx == nil {
		<-t.done
		res := t.res
		t.release()
		return res
	}
	select {
	case <-t.done:
		res := t.res
		t.release()
		return res
	case <-ctx.Done():
		return t.cancel(ctx.Err())
	}
}

// Cancel abandons the ticket without waiting. If delivery already won
// the race the delivered result is returned; otherwise the waiter is
// deregistered (the execution itself proceeds if other waiters remain,
// and is withdrawn entirely when the last pending waiter cancels) and
// the result carries context.Canceled.
func (t *Ticket) Cancel() Result {
	return t.cancel(context.Canceled)
}

// release recycles a delivered ticket.
func (t *Ticket) release() {
	f := t.f
	f.mu.Lock()
	f.putTicketLocked(t)
	f.mu.Unlock()
}

// cancel deregisters the waiter, racing against delivery under the
// front's mutex: if the flight completed first, the delivered result
// wins and cause is discarded.
func (t *Ticket) cancel(cause error) Result {
	f := t.f
	f.mu.Lock()
	if t.delivered {
		<-t.done // consume the signal so the channel pools empty
		res := t.res
		f.putTicketLocked(t)
		f.mu.Unlock()
		return res
	}
	fl := t.fl
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		fl.waiters = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	}
	fl.nwait--
	if fl.nwait == 0 && fl.pending {
		// Last waiter gone before the batch formed: withdraw the flight.
		f.dropPendingLocked(fl)
	}
	f.m.Cancelled++
	f.putTicketLocked(t)
	f.mu.Unlock()
	return Result{Err: cause}
}

// maxKeys bounds the key cache. It gains an entry per distinct expression
// string ever submitted — malformed, rejected and shed ones included — so
// unbounded it grows with the server's lifetime; when full it is cleared
// and refills from the live stream. In-flight twins still coalesce across
// a clear: flights are keyed by the canonical string, which preparing the
// expression again reproduces, and each flight keeps its own prepared query.
// An entry is a whole prepared query: 340–450 bytes on the bench/ streams
// (map slot, expression, key, terms, normal form), so 21–28 MiB at maxKeys
// and 2.7–3.6 MB at the largest stream's 8,000 distinct expressions; 53 KB at
// the widest the term limit admits (3·3·3·3·2·2 = 324 conjuncts of 6 terms),
// 3.3 GiB at maxKeys.
const maxKeys = 1 << 16

// prepareLocked resolves a request to its coalescing key and, for a search,
// the prepared query its flight will carry: the key cache's value, whose Key
// is the canonical DNF. Only an expression's first sighting is parsed, held
// to the term limit and normalised (query.Prepare, in that order: the limit,
// not the expression, bounds the work done under the mutex); a refusal is
// cached like a success. A fetch's canon is fetchTag; Submit adds its id
// list's hash to the key.
//
//boss:hotpath one map probe per search request in steady state; none per fetch.
func (f *Front) prepareLocked(req *Request) (string, *query.Prepared, error) {
	if len(req.FetchIDs) > 0 {
		if req.Expr != "" {
			return "", nil, ErrMixedRequest
		}
		return fetchTag, nil, nil
	}
	e, ok := f.keys[req.Expr]
	if !ok {
		if len(f.keys) >= maxKeys {
			clear(f.keys)
		}
		e.prep, e.err = query.Prepare(req.Expr)
		f.keys[req.Expr] = e
	}
	if e.err != nil {
		return "", nil, e.err
	}
	return e.prep.Key, e.prep, nil
}

// fetchTag is every fetch key's canon. Its leading NUL byte keeps fetch
// keys disjoint from every DNF canonicalization, so a fetch can never
// coalesce onto a query flight.
const fetchTag = "\x00f"

// twinLocked returns the in-flight flight a request with the given fetch id
// list (empty for a search) coalesces onto under key, or nil. taken reports
// that the key's slot is held, by the twin or — when a different id list
// hashed alike — by a flight the request must not join: a hash collision
// costs a missed coalesce, never a wrong answer.
//
//boss:hotpath one map probe per admission and per degraded admission.
func (f *Front) twinLocked(key flightKey, ids []uint32) (twin *flight, taken bool) {
	fl := f.flights[key]
	if fl != nil && slices.Equal(fl.fetchIDs, ids) {
		return fl, true
	}
	return nil, fl != nil
}

// fetchCanon renders a fetch request's id list after fetchTag: the key the
// decision log records for a fetch. Only a front with a Recorder renders
// it, at two allocations (the buffer and the string).
func fetchCanon(ids []uint32) string {
	b := make([]byte, 0, 2+len(ids)*7)
	b = append(b, fetchTag...)
	for _, id := range ids {
		b = append(b, ':')
		b = strconv.AppendUint(b, uint64(id), 10)
	}
	return string(b)
}

// attachLocked links a ticket onto a flight's intrusive waiter list,
// tightening the flight's deadline (and the flush timer) if the new
// waiter is more urgent.
//
//boss:hotpath one call per admitted or coalesced request.
func (f *Front) attachLocked(fl *flight, deadline time.Time, dedup bool) *Ticket {
	t := f.getTicketLocked() //boss:escape-ok free-list miss inside inlined getTicketLocked
	t.fl = fl
	t.dedup = dedup
	t.prev = nil
	t.next = fl.waiters
	if fl.waiters != nil {
		fl.waiters.prev = t
	}
	fl.waiters = t
	fl.nwait++
	if dedup {
		f.m.DedupHits++
		if fl.pending && deadline.Before(fl.deadline) {
			fl.deadline = deadline
			f.armTimerLocked(deadline)
		}
	}
	return t
}

// pushPendingLocked appends a flight to the open-coded intrusive
// pending queue.
//
//boss:hotpath one call per admitted flight.
func (f *Front) pushPendingLocked(fl *flight) {
	fl.pending = true
	fl.prev = f.pendTail
	fl.next = nil
	if f.pendTail != nil {
		f.pendTail.next = fl
	} else {
		f.pendHead = fl
	}
	f.pendTail = fl
	f.npending++
	f.inSystem++
}

// dropPendingLocked withdraws a pending flight whose last waiter
// cancelled, unlinking it and recycling it.
func (f *Front) dropPendingLocked(fl *flight) {
	if fl.prev != nil {
		fl.prev.next = fl.next
	} else {
		f.pendHead = fl.next
	}
	if fl.next != nil {
		fl.next.prev = fl.prev
	} else {
		f.pendTail = fl.prev
	}
	fl.pending = false
	f.npending--
	f.inSystem--
	if fl.keyed {
		delete(f.flights, fl.key)
	}
	f.putFlightLocked(fl)
}

// armTimerLocked retargets the flush timer at deadline−FlushSlack if
// that is earlier than the currently armed point.
//
//boss:hotpath one Reset per admission that tightens the deadline.
func (f *Front) armTimerLocked(deadline time.Time) {
	at := deadline.Add(-f.cfg.FlushSlack)
	if !f.timerAt.IsZero() && !at.Before(f.timerAt) {
		return
	}
	f.timerAt = at
	d := at.Sub(f.clock.Now())
	if d < 0 {
		d = 0
	}
	f.timer.Reset(d)
}

// onTimer is the flush timer's callback: ignore stale fires, re-arm
// early ones, flush otherwise.
func (f *Front) onTimer() {
	f.mu.Lock()
	if f.timerAt.IsZero() || f.closed {
		f.mu.Unlock()
		return
	}
	now := f.clock.Now()
	if now.Before(f.timerAt) {
		f.timer.Reset(f.timerAt.Sub(now))
		f.mu.Unlock()
		return
	}
	f.timerAt = time.Time{}
	if f.npending > 0 {
		f.flushLocked(flushDeadline)
	}
	f.mu.Unlock()
}

// flushLocked forms the pending flights into one batch and hands it to
// the executor. The send cannot block: see the execCh capacity invariant
// in New.
//
//boss:hotpath one call per formed batch; appends grow pooled batch scratch that amortizes to zero.
func (f *Front) flushLocked(reason int) {
	if f.npending == 0 {
		return
	}
	bt := f.getBatchLocked() //boss:escape-ok free-list miss inside inlined getBatchLocked
	for fl := f.pendHead; fl != nil; {
		next := fl.next
		fl.prev = nil
		fl.next = nil
		fl.pending = false
		bt.flights = append(bt.flights, fl)
		bt.qs = append(bt.qs, pool.BatchQuery{Expr: fl.expr, Prepared: fl.prep, FetchIDs: fl.fetchIDs, K: fl.key.k, ShardMask: fl.key.mask})
		bt.outs = append(bt.outs, Out{})
		fl = next
	}
	f.pendHead = nil
	f.pendTail = nil
	n := f.npending
	f.npending = 0
	f.timerAt = time.Time{}
	f.m.Batches++
	switch reason {
	case flushSize:
		f.m.FlushSize++
		f.recordLocked(DFlushSize, "", "", n)
	case flushDeadline:
		f.m.FlushDeadline++
		f.recordLocked(DFlushDeadline, "", "", n)
	default:
		f.m.FlushManual++
		f.recordLocked(DFlushManual, "", "", n)
	}
	f.execCh <- bt
}

// runExecutor drains formed batches through the backend, one at a time,
// fanning each flight's result out to its waiters.
//
// flight's deadline is enforced per-ticket by the deadline watcher, not by
// cancelling the shared batch execution.
//
//boss:ctx-root the executor daemon outlives every request context; each
func (f *Front) runExecutor() {
	defer f.wg.Done()
	for bt := range f.execCh {
		f.be.ExecuteBatch(context.Background(), bt.qs, bt.outs)
		f.completeBatch(bt)
	}
}

// completeBatch delivers a finished batch and recycles it.
func (f *Front) completeBatch(bt *batch) {
	f.mu.Lock()
	for i, fl := range bt.flights {
		f.completeLocked(fl, &bt.outs[i])
		bt.flights[i] = nil
	}
	f.m.Executed += uint64(len(bt.qs))
	bt.flights = bt.flights[:0]
	bt.qs = bt.qs[:0]
	bt.outs = bt.outs[:0]
	f.putBatchLocked(bt)
	f.mu.Unlock()
}

// completeLocked fans one flight's result out to every waiter and
// recycles the flight. Each ticket's cap-1 channel receives exactly one
// signal; the channel is never closed so tickets pool cleanly.
//
//boss:hotpath one call per completed flight.
func (f *Front) completeLocked(fl *flight, out *Out) {
	if fl.keyed {
		delete(f.flights, fl.key)
	}
	f.inSystem--
	for t := fl.waiters; t != nil; {
		next := t.next
		t.res.TopK = out.TopK
		t.res.Docs = out.Docs
		t.res.Degraded = out.Degraded
		t.res.Err = out.Err
		t.res.DedupHit = t.dedup
		t.delivered = true
		t.fl = nil
		t.prev = nil
		t.next = nil
		t.done <- struct{}{}
		t = next
	}
	fl.waiters = nil
	fl.nwait = 0
	f.putFlightLocked(fl)
}

// takeToken lazily refills the bucket from elapsed clock time and takes
// one token if available.
//
//boss:hotpath one call per rate-limited admission.
func takeToken(b *bucket, now time.Time) bool {
	if b.rate > 0 {
		dt := now.Sub(b.last).Seconds()
		if dt > 0 {
			b.tokens += dt * b.rate
			if b.tokens > b.burst {
				b.tokens = b.burst
			}
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// degradeMaskLocked computes the next degraded shard mask: all shards
// except dropN of them, rotating which shards are dropped so degraded
// load spreads evenly. Returns zero (execute in full) when the backend
// cannot degrade.
func (f *Front) degradeMaskLocked() uint64 {
	bits := f.shards
	if bits > 64 {
		bits = 64
	}
	if bits <= 1 || f.dropN <= 0 {
		return 0
	}
	var full uint64
	if bits == 64 {
		full = ^uint64(0)
	} else {
		full = uint64(1)<<uint(bits) - 1
	}
	mask := full
	for i := 0; i < f.dropN; i++ {
		mask &^= 1 << uint((f.degradeRot+i)%bits)
	}
	f.degradeRot = (f.degradeRot + f.dropN) % bits
	return mask
}

// recordLocked appends to the decision log when a Recorder is attached
// (outlined from the hot path; nil-recorder fronts pay one branch).
func (f *Front) recordLocked(kind DecisionKind, tenant, key string, n int) {
	if f.rec == nil {
		return
	}
	f.rec.record(Decision{Kind: kind, Tenant: tenant, Key: key, Queue: f.inSystem, N: n})
}

// --- free lists ---

// getTicketLocked leases a ticket from the arena (allocating only when
// the free list is dry).
//
//boss:hotpath one call per request.
func (f *Front) getTicketLocked() *Ticket {
	t := f.freeTickets
	if t == nil {
		return &Ticket{f: f, done: make(chan struct{}, 1)} //boss:escape-ok free-list miss: tickets recycle through freeTickets
	}
	f.freeTickets = t.next
	t.next = nil
	return t
}

// putTicketLocked returns a ticket to the arena, dropping result
// references so pooled tickets do not pin slices.
//
//boss:hotpath one call per delivered or cancelled request.
func (f *Front) putTicketLocked(t *Ticket) {
	t.res = Result{}
	t.fl = nil
	t.dedup = false
	t.delivered = false
	t.prev = nil
	t.next = f.freeTickets
	f.freeTickets = t
}

// getFlightLocked leases a flight from the arena.
//
//boss:hotpath one call per admitted flight.
func (f *Front) getFlightLocked() *flight {
	fl := f.freeFlights
	if fl == nil {
		return &flight{} //boss:escape-ok free-list miss: flights recycle through freeFlights
	}
	f.freeFlights = fl.next
	fl.next = nil
	return fl
}

// putFlightLocked returns a flight to the arena.
//
//boss:hotpath one call per completed or withdrawn flight.
func (f *Front) putFlightLocked(fl *flight) {
	fl.key = flightKey{}
	fl.expr = ""
	fl.prep = nil
	fl.fetchIDs = fl.fetchIDs[:0]
	fl.deadline = time.Time{}
	fl.waiters = nil
	fl.nwait = 0
	fl.pending = false
	fl.keyed = false
	fl.prev = nil
	fl.next = f.freeFlights
	f.freeFlights = fl
}

// getBatchLocked leases a batch (its slices keep their capacity across
// leases, so formation amortizes to zero allocation).
func (f *Front) getBatchLocked() *batch {
	bt := f.freeBatches
	if bt == nil {
		return &batch{}
	}
	f.freeBatches = bt.free
	bt.free = nil
	return bt
}

// putBatchLocked returns a drained batch to the arena.
func (f *Front) putBatchLocked(bt *batch) {
	bt.free = f.freeBatches
	f.freeBatches = bt
}
