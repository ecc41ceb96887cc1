package boss

import (
	"context"
	"time"

	"boss/internal/core"
	"boss/internal/front"
	"boss/internal/perf"
	"boss/internal/pool"
)

// Serving-tier admission errors, re-exported from the front door.
var (
	// ErrShed reports a low-priority request shed because its tenant
	// exceeded its rate. The request never executed.
	ErrShed = front.ErrShed
	// ErrOverloaded reports the admission queue was at capacity.
	ErrOverloaded = front.ErrOverloaded
)

// Priority places a serving request on the front door's shedding ladder:
// under pressure, PriorityLow sheds first and PriorityHigh degrades
// last. The zero value is PriorityNormal.
type Priority uint8

// Serving priorities.
const (
	PriorityNormal Priority = iota
	PriorityLow
	PriorityHigh
)

// TenantRate is one tenant's serving rate limit: Rate requests per
// second with a Burst ceiling (Burst defaults to Rate).
type TenantRate struct {
	Rate  float64
	Burst float64
}

// FrontConfig tunes the front-door serving tier. The zero value gets
// serving defaults (batches of 16, a 256-deep admission queue, 10 ms
// deadlines with 2 ms flush slack, degradation past 75% queue fill).
// Serving is opt-in: nothing changes for callers that never Serve.
type FrontConfig struct {
	// BatchTarget is the pending-request count that triggers a flush.
	BatchTarget int
	// MaxQueue bounds admitted-but-unfinished executions; beyond it
	// Submit returns ErrOverloaded.
	MaxQueue int
	// Timeout is the deadline budget for requests without one.
	Timeout time.Duration
	// FlushSlack is how far before the earliest admitted deadline the
	// pending batch is force-flushed.
	FlushSlack time.Duration
	// DegradeWatermark is the queue-fill fraction past which non-high
	// admissions degrade to partial-node answers (≥ 1 disables).
	DegradeWatermark float64
	// DegradeShards is how many memory nodes a degraded query skips
	// (default: half).
	DegradeShards int
	// Tenants configures per-tenant token buckets; absent tenants are
	// not rate-limited.
	Tenants map[string]TenantRate
}

func (c FrontConfig) toFront() front.Config {
	fc := front.Config{
		BatchTarget:      c.BatchTarget,
		MaxQueue:         c.MaxQueue,
		Timeout:          c.Timeout,
		FlushSlack:       c.FlushSlack,
		DegradeWatermark: c.DegradeWatermark,
		DegradeShards:    c.DegradeShards,
	}
	if len(c.Tenants) > 0 {
		fc.Tenants = make(map[string]front.TenantConfig, len(c.Tenants))
		for name, tr := range c.Tenants {
			fc.Tenants[name] = front.TenantConfig{Rate: tr.Rate, Burst: tr.Burst}
		}
	}
	return fc
}

// ServeRequest is one request to a serving-tier Server: either a search
// (Expr) or a document fetch (FetchIDs), never both.
type ServeRequest struct {
	// Expr is the boolean query expression.
	Expr string
	// FetchIDs, when non-empty, makes this a document-fetch request:
	// the payloads come back in ServedResult.Docs. Fetches share the
	// admission ladder, rate limits, coalescing, and batch former with
	// queries — identical concurrent id lists execute once, and a
	// degraded admission leaves the shed nodes' documents empty.
	// Mutually exclusive with Expr.
	FetchIDs []uint32
	// K is the top-k depth (<= 0 uses the deployment default).
	K int
	// Tenant names the rate-limit bucket the request draws from.
	Tenant string
	// Priority places the request on the shedding ladder.
	Priority Priority
	// Deadline is when the answer stops being useful (zero: now +
	// FrontConfig.Timeout).
	Deadline time.Time
}

// ServedResult is one served request's outcome.
type ServedResult struct {
	// Hits is the merged ranking (empty for fetch requests).
	Hits []Hit
	// Docs holds the fetched payloads of a FetchIDs request, aligned
	// with the submitted id list. Documents on degraded nodes come back
	// zero-valued with their DocID set.
	Docs []Doc
	// DedupHit reports the request coalesced onto another identical
	// in-flight query instead of executing its own.
	DedupHit bool
	// Degraded is a bitmask of memory nodes missing from Hits — shed
	// by the admission ladder or failed during execution. Zero means
	// the answer is complete.
	Degraded uint64
	// Hedged counts node attempts that fired a hedged backup replica
	// while executing this request (zero on single-copy deployments).
	Hedged int
}

// ServeStats snapshots a Server's admission and batching counters.
type ServeStats struct {
	// Submitted counts parseable requests, admitted or not.
	Submitted uint64
	// Fetches counts the document-fetch requests among Submitted.
	Fetches uint64
	// Admitted counts distinct executions admitted.
	Admitted uint64
	// DedupHits counts requests answered by coalescing onto an
	// identical in-flight execution.
	DedupHits uint64
	// Degraded counts admissions downgraded to partial-node answers.
	Degraded uint64
	// Shed counts requests shed by rate limiting (ErrShed).
	Shed uint64
	// Rejected counts requests refused at queue capacity
	// (ErrOverloaded).
	Rejected uint64
	// Batches counts batches flushed to the execution engine.
	Batches uint64
	// Executed counts distinct executions completed.
	Executed uint64
	// Hedged counts node attempts that fired a hedged backup replica,
	// summed over completed executions.
	Hedged uint64
}

// Server is a front-door serving tier over a deployment: a bounded
// admission queue feeding deadline-aware batch formation, coalescing of
// identical concurrent queries, and per-tenant rate limits with
// priority-aware shedding that degrades to partial-node answers before
// rejecting. Construct with ShardedIndex.Serve or Accelerator.Serve;
// Close releases it.
type Server struct {
	f     *front.Front
	names []string // docID -> user-facing name; nil names documents "doc<id>"
}

// ServeTicket is one waiter's handle on a submitted request. Exactly one
// of Wait or Cancel must be called.
type ServeTicket struct {
	s *Server
	t *front.Ticket
}

// Serve starts a front-door serving tier over the sharded deployment.
// Degraded admissions execute on a subset of memory nodes, reusing the
// resilient path's partial-answer machinery (ServedResult.Degraded uses
// the same node bitmask as BatchItem.Degraded).
func (s *ShardedIndex) Serve(cfg FrontConfig) (*Server, error) {
	f, err := front.New(cfg.toFront(), front.NewClusterBackend(s.cluster))
	if err != nil {
		return nil, err
	}
	return &Server{f: f}, nil
}

// Serve starts a front-door serving tier over the single-device
// accelerator. With one device there is nothing to degrade to, so the
// ladder sheds or rejects instead; coalescing, batching, and rate limits
// work identically to the sharded deployment.
func (a *Accelerator) Serve(cfg FrontConfig) (*Server, error) {
	f, err := front.New(cfg.toFront(), accelBackend{a: a})
	if err != nil {
		return nil, err
	}
	return &Server{f: f, names: a.ix.names}, nil
}

// accelBackend adapts the single-device accelerator to the front door's
// batch execution surface. It holds the facade handle rather than the
// core engine so fetch queries reach the lazily-wired fetch engine (and
// its docstore synthesis) through the same path FetchDocs uses.
type accelBackend struct {
	a *Accelerator
}

func (b accelBackend) Shards() int { return 1 }

func (b accelBackend) ExecuteBatch(ctx context.Context, qs []pool.BatchQuery, out []front.Out) {
	// The front door reads a search's answer, not its work: one record takes
	// every search's charges in turn.
	m := new(perf.Metrics)
	for i, q := range qs {
		if len(q.FetchIDs) > 0 {
			out[i] = b.fetchOut(ctx, q.FetchIDs)
			continue
		}
		k := q.K
		if k <= 0 {
			k = core.DefaultK
		}
		// Prepared at admission: front.Backend's contract for a search.
		top, err := b.a.acc.Exec(ctx, q.Prepared.Plan, k, m, nil)
		if err != nil {
			out[i] = front.Out{Err: err}
			continue
		}
		out[i] = front.Out{TopK: top}
	}
}

// fetchOut serves one document-fetch batch query on the single device.
func (b accelBackend) fetchOut(ctx context.Context, ids []uint32) front.Out {
	eng, err := b.a.fetchEngine()
	if err != nil {
		return front.Out{Err: err}
	}
	docs, err := fetchDocs(ctx, eng, ids, perf.NewMetrics())
	return front.Out{Docs: docs, Err: err}
}

// Submit admits one request asynchronously, returning a ticket to wait
// on. Identical concurrent queries (same canonical boolean form, same k)
// coalesce into one execution. Admission failures return ErrShed,
// ErrOverloaded, or the expression's own error: it does not parse, or holds
// more terms than the device handles.
func (s *Server) Submit(req ServeRequest) (*ServeTicket, error) {
	t, err := s.f.Submit(front.Request{
		Expr:     req.Expr,
		FetchIDs: req.FetchIDs,
		K:        req.K,
		Tenant:   req.Tenant,
		Priority: front.Priority(req.Priority),
		Deadline: req.Deadline,
	})
	if err != nil {
		return nil, err
	}
	return &ServeTicket{s: s, t: t}, nil
}

// Wait blocks until the result is delivered or ctx dies. The ticket is
// spent either way.
func (tk *ServeTicket) Wait(ctx context.Context) (*ServedResult, error) {
	res := tk.t.Wait(ctx)
	return servedResult(tk.s, res)
}

// Cancel abandons the ticket without waiting; if delivery already won
// the race the delivered result is returned.
func (tk *ServeTicket) Cancel() (*ServedResult, error) {
	res := tk.t.Cancel()
	return servedResult(tk.s, res)
}

// servedResult converts one delivered front-door result.
func servedResult(s *Server, res front.Result) (*ServedResult, error) {
	if res.Err != nil {
		return nil, res.Err
	}
	out := &ServedResult{
		DedupHit: res.DedupHit,
		Degraded: res.Degraded,
		Hedged:   res.Hedged,
	}
	if res.Docs != nil {
		out.Docs = docsFromFetched(res.Docs)
	} else {
		out.Hits = hits(s.names, res.TopK)
	}
	return out, nil
}

// Search is Submit + Wait.
func (s *Server) Search(ctx context.Context, req ServeRequest) (*ServedResult, error) {
	tk, err := s.Submit(req)
	if err != nil {
		return nil, err
	}
	return tk.Wait(ctx)
}

// Flush force-flushes the pending batch. Production traffic flushes on
// the size target and the deadline timer; Flush exists for drains,
// examples, and tests.
func (s *Server) Flush() { s.f.Flush() }

// Close flushes pending work, delivers every outstanding ticket, and
// rejects further Submits.
func (s *Server) Close() { s.f.Close() }

// Stats snapshots the serving counters.
func (s *Server) Stats() ServeStats {
	m := s.f.Metrics()
	return ServeStats{
		Submitted: m.Submitted,
		Fetches:   m.Fetches,
		Admitted:  m.Admitted,
		DedupHits: m.DedupHits,
		Degraded:  m.Degraded,
		Shed:      m.ShedTokens,
		Rejected:  m.RejectedFull,
		Batches:   m.Batches,
		Executed:  m.Executed,
		Hedged:    m.Hedged,
	}
}
