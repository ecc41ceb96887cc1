package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"boss/internal/front"
	"boss/internal/pool"
)

// Span names. request is a root with one id per request; front.submit and
// backend.batch are its children; direct.call is the seq phase's root.
const (
	spanRequest = "request"
	spanSubmit  = "front.submit"
	spanBatch   = "backend.batch"
	spanDirect  = "direct.call"
)

// span is one recorded interval. Times are nanoseconds since the
// recorder's epoch. A backend.batch serves several requests, so its
// parents are a list (filled by link); every other child has one Parent.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Parent  int    `json:"parent,omitempty"`
	Parents []int  `json:"parents,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	// N is the batch size of a backend.batch span.
	N int `json:"n,omitempty"`

	key  string   // request: coalescing key; links requests to batches
	keys []string // backend.batch: the keys it executed
}

// maxSpans bounds the in-memory trace of one run (~40 MB of spans).
const maxSpans = 400000

// recorder keeps spans in memory until the run ends. on gates recording
// so the same wrapped deployment can run traced and untraced slices.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	on    bool
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) setOn(on bool) {
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

func (r *recorder) enabled() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.on
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// add records one span and returns its id (0 when recording is off or the
// trace is full; ids start at 1).
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on || len(r.spans) >= maxSpans {
		return 0
	}
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// setEnd closes a span whose end was not known when it was added.
func (r *recorder) setEnd(id int, end int64) {
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// tracedBackend wraps the one injectable boundary, front.Backend, so the
// traced run sees pool and everything below it as one span per batch.
type tracedBackend struct {
	inner front.Backend
	rec   *recorder
}

func (b *tracedBackend) Shards() int { return b.inner.Shards() }

func (b *tracedBackend) ExecuteBatch(ctx context.Context, qs []pool.BatchQuery, out []front.Out) {
	if !b.rec.enabled() {
		b.inner.ExecuteBatch(ctx, qs, out)
		return
	}
	start := time.Now()
	b.inner.ExecuteBatch(ctx, qs, out)
	end := time.Now()
	keys := make([]string, len(qs))
	for i, q := range qs {
		keys[i] = requestKey(q.Expr, q.FetchIDs)
	}
	b.rec.add(span{Name: spanBatch, Start: b.rec.since(start), End: b.rec.since(end), N: len(qs), keys: keys})
}

// requestKey identifies what a request asks for, as the wrapped backend
// sees it: the expression, or the id list of a fetch.
func requestKey(expr string, ids []uint32) string {
	if len(ids) == 0 {
		return expr
	}
	return fmt.Sprint("fetch", ids)
}

// link attaches every request span to the backend.batch that served it:
// the latest batch that executed the request's key and ended inside the
// request. (A coalesced request may attach to a flight that is already
// executing, so the batch may start before the request does.) canon maps
// an expression to its coalescing key, because a flight carries the
// expression of its first waiter. It returns how many requests found a
// batch.
func link(spans []span, canon func(string) string) (matched, requests int) {
	byKey := make(map[string][]int) // key -> batch span indexes, by End
	for i := range spans {
		if spans[i].Name != spanBatch {
			continue
		}
		for _, k := range spans[i].keys {
			byKey[canon(k)] = append(byKey[canon(k)], i)
		}
	}
	for _, idx := range byKey {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].End < spans[idx[b]].End })
	}
	for i := range spans {
		rq := &spans[i]
		if rq.Name != spanRequest {
			continue
		}
		requests++
		cands := byKey[canon(rq.key)]
		j := sort.Search(len(cands), func(j int) bool { return spans[cands[j]].End > rq.End }) - 1
		if j < 0 || spans[cands[j]].End < rq.Start {
			continue
		}
		b := &spans[cands[j]]
		b.Parents = append(b.Parents, rq.ID)
		matched++
	}
	return matched, requests
}

// interval is a half-open time range.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children cover:
// children are clipped to the span and overlapping children count once.
func selfTime(sp interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < sp.start {
			c.start = sp.start
		}
		if c.end > sp.end {
			c.end = sp.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered, until int64
	until = sp.start
	for _, c := range clipped {
		if c.start > until {
			until = c.start
		}
		if c.end > until {
			covered += c.end - until
			until = c.end
		}
	}
	return sp.end - sp.start - covered
}

// traceBudget is what the linked trace says about where a request's time
// went. All fields are means over request spans, in nanoseconds.
type traceBudget struct {
	requests  int
	requestNs float64 // request span
	submitNs  float64 // front.submit child
	selfNs    float64 // request minus child cover: queue + batching wait
	batchSize float64 // mean N of the batches that served requests
	perQuery  float64 // backend.batch span / N, mean over batches
}

// budget computes self times over the linked spans.
func budget(spans []span) traceBudget {
	children := make(map[int][]interval)
	var tb traceBudget
	var batches int
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case spanSubmit:
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
			tb.submitNs += float64(s.End - s.Start)
		case spanBatch:
			for _, p := range s.Parents {
				children[p] = append(children[p], interval{s.Start, s.End})
			}
			if s.N > 0 {
				batches++
				tb.batchSize += float64(s.N)
				tb.perQuery += float64(s.End-s.Start) / float64(s.N)
			}
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Name != spanRequest {
			continue
		}
		tb.requests++
		sp := interval{s.Start, s.End}
		self := selfTime(sp, children[s.ID])
		tb.requestNs += float64(s.End - s.Start)
		tb.selfNs += float64(self)
	}
	if tb.requests > 0 {
		n := float64(tb.requests)
		tb.requestNs /= n
		tb.selfNs /= n
		tb.submitNs /= n
	}
	if batches > 0 {
		tb.batchSize /= float64(batches)
		tb.perQuery /= float64(batches)
	}
	return tb
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Epoch    string `json:"epoch"`
	Spans    []span `json:"spans"`
}

// writeTrace writes the spans to <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, seed int64, rec *recorder) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(traceFile{Workload: workload, Seed: seed, Epoch: rec.epoch.UTC().Format(time.RFC3339Nano), Spans: rec.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, nil
}
