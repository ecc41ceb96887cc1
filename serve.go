package boss

import (
	"context"
	"time"

	"boss/internal/front"
)

// ErrOverloaded reports the admission queue was at capacity, re-exported
// from the front door.
var ErrOverloaded = front.ErrOverloaded

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
	// DegradeWatermark is the queue-fill fraction past which admissions
	// degrade to answers that skip half the memory nodes (≥ 1 disables).
	DegradeWatermark float64
}

func (c FrontConfig) toFront() front.Config {
	return front.Config{
		BatchTarget:      c.BatchTarget,
		MaxQueue:         c.MaxQueue,
		Timeout:          c.Timeout,
		DegradeWatermark: c.DegradeWatermark,
	}
}

// ServeRequest is one request to a serving-tier Server: either a search
// (Expr) or a document fetch (FetchIDs), never both.
type ServeRequest struct {
	// Expr is the boolean query expression.
	Expr string
	// FetchIDs, when non-empty, makes this a document-fetch request:
	// the payloads come back in ServedResult.Docs. Fetches share the
	// admission ladder, coalescing, and batch former with queries —
	// identical concurrent id lists execute once, and a degraded admission
	// leaves the shed nodes' documents empty.
	// Mutually exclusive with Expr.
	FetchIDs []uint32
	// K is the top-k depth (<= 0 uses the deployment default).
	K int
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
	// Shed is always zero: the serving tier has no rate limits. It stays
	// only because the benchmark still reads it.
	Shed uint64
	// Rejected counts requests refused at queue capacity
	// (ErrOverloaded).
	Rejected uint64
	// Batches counts batches flushed to the execution engine.
	Batches uint64
	// Executed counts distinct executions completed.
	Executed uint64
}

// Server is a front-door serving tier over a deployment: a bounded
// admission queue feeding deadline-aware batch formation, coalescing of
// identical concurrent queries, and load shedding that degrades to
// partial-node answers past a queue watermark before rejecting. Construct
// with ShardedIndex.Serve or Accelerator.Serve; Close releases it.
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

// Serve starts a front-door serving tier over the deployment, on the same
// cluster its Search runs on. Degraded admissions execute on a subset of
// memory nodes, reusing the resilient path's partial-answer machinery
// (ServedResult.Degraded uses the same node bitmask as BatchItem.Degraded).
// An Accelerator has no node to leave out, so nothing degrades there: an
// admission past the watermark executes in full (ServedResult.Degraded and
// ServeStats.Degraded stay zero), and a full queue rejects with
// ErrOverloaded. Coalescing and batching work identically on both handles.
func (d *deployment) Serve(cfg FrontConfig) (*Server, error) {
	f, err := front.New(cfg.toFront(), front.NewClusterBackend(d.cluster))
	if err != nil {
		return nil, err
	}
	return &Server{f: f, names: d.names}, nil
}

// Submit admits one request asynchronously, returning a ticket to wait
// on. Identical concurrent queries (same canonical boolean form, same k)
// coalesce into one execution. Admission failures return ErrOverloaded or
// the expression's own error: it does not parse, or holds more terms than
// the device handles.
func (s *Server) Submit(req ServeRequest) (*ServeTicket, error) {
	t, err := s.f.Submit(front.Request{
		Expr:     req.Expr,
		FetchIDs: req.FetchIDs,
		K:        req.K,
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
	}
}
