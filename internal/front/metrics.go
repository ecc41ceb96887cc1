package front

import (
	"strconv"
	"sync"
)

// Metrics counts the front door's admission, coalescing, and batching
// activity. All counters are cumulative since New.
type Metrics struct {
	// Submitted counts every Submit call that passed parsing, admitted
	// or not.
	Submitted uint64
	// Fetches counts the document-fetch requests among Submitted.
	Fetches uint64
	// Admitted counts flights created (distinct executions admitted).
	Admitted uint64
	// DedupHits counts requests that attached to an existing in-flight
	// execution instead of admitting a new one.
	DedupHits uint64
	// Degraded counts admissions downgraded to partial-shard execution
	// by token-bucket exhaustion or queue pressure.
	Degraded uint64
	// ShedTokens counts low-priority requests shed because their
	// tenant's token bucket was empty.
	ShedTokens uint64
	// RejectedFull counts requests rejected because the admission
	// queue was at capacity.
	RejectedFull uint64
	// Cancelled counts waiters that abandoned their ticket before
	// delivery.
	Cancelled uint64
	// Batches counts batches flushed to the backend; FlushSize,
	// FlushDeadline, and FlushManual break them down by trigger.
	Batches       uint64
	FlushSize     uint64
	FlushDeadline uint64
	FlushManual   uint64
	// Executed counts flights completed by the backend.
	Executed uint64
}

// DecisionKind labels one admission/batching decision in the log.
type DecisionKind uint8

// Decision kinds, in the order the admission ladder takes them.
const (
	DAdmit           DecisionKind = iota // new flight admitted
	DAttach                              // coalesced onto an in-flight twin
	DDegradeTokens                       // degraded: tenant bucket empty
	DDegradePressure                     // degraded: queue past watermark
	DShedTokens                          // shed: bucket empty, low priority
	DRejectFull                          // rejected: queue at capacity
	DFlushSize                           // batch flushed: size target
	DFlushDeadline                       // batch flushed: deadline slack
	DFlushManual                         // batch flushed: Flush/Close
)

func (k DecisionKind) String() string {
	switch k {
	case DAdmit:
		return "admit"
	case DAttach:
		return "attach"
	case DDegradeTokens:
		return "degrade-tokens"
	case DDegradePressure:
		return "degrade-pressure"
	case DShedTokens:
		return "shed-tokens"
	case DRejectFull:
		return "reject-full"
	case DFlushSize:
		return "flush-size"
	case DFlushDeadline:
		return "flush-deadline"
	case DFlushManual:
		return "flush-manual"
	}
	return "unknown"
}

// Decision is one entry in the front door's decision log: what the
// admission ladder or the batch former decided, and the queue state it
// decided under. The sequence of decisions for a given arrival script is
// deterministic — the determinism tests replay a script twice and require
// byte-identical Render output.
type Decision struct {
	// Seq is the decision's position in the log.
	Seq int
	// Kind is what was decided.
	Kind DecisionKind
	// Tenant and Key identify the request (Key is the canonical query
	// form; empty for flush decisions).
	Tenant string
	Key    string
	// Queue is the number of flights in the system when the decision
	// was taken.
	Queue int
	// N is the batch size for flush decisions, zero otherwise.
	N int
}

// Recorder captures the decision log. Attach one via Config.Recorder in
// tests; production fronts run without one (recording allocates).
type Recorder struct {
	mu sync.Mutex
	ds []Decision
}

// record appends one decision, stamping its sequence number.
func (r *Recorder) record(d Decision) {
	r.mu.Lock()
	d.Seq = len(r.ds)
	r.ds = append(r.ds, d)
	r.mu.Unlock()
}

// Render serializes the log into a canonical byte form, one decision per
// line. Two runs that made identical decisions render identically.
func (r *Recorder) Render() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b []byte
	for _, d := range r.ds {
		b = strconv.AppendInt(b, int64(d.Seq), 10)
		b = append(b, ' ')
		b = append(b, d.Kind.String()...)
		b = append(b, " tenant="...)
		b = append(b, d.Tenant...)
		b = append(b, " key="...)
		b = append(b, d.Key...)
		b = append(b, " queue="...)
		b = strconv.AppendInt(b, int64(d.Queue), 10)
		b = append(b, " n="...)
		b = strconv.AppendInt(b, int64(d.N), 10)
		b = append(b, '\n')
	}
	return b
}
