package pool

import (
	"context"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n) on at most `workers` goroutines
// — the caller's own and up to workers-1 parked helpers — and returns once
// every fn call has returned. Indices are handed out in ascending order; a
// dead context stops the hand-out, so fn ran for the first `dispatched`
// indices and for none past them. workers <= 1 runs every index on the
// caller, in order. It is the tree's one batch worker pool: the cluster's
// shard fan-out and query pipeline, and the facade's single-device batches.
//
// The helpers live for the process (park): the first call that asks for a
// width starts the helpers it lacks, so the crew grows to the widest width
// ever asked for and a warm call starts no goroutine. A call that finds
// helpers busy with other calls starts goroutines of its own for the width
// it lacks, which exit with the call (pitchIn), so concurrent callers each
// run at their full width. The caller always runs indices itself, so a
// nested ForEach never waits on a helper to make progress. fn is held for
// the call only; a hot caller passes a func value bound once on storage it
// reuses (queryRec.sweepFn, BatchResult.run), and the call allocates
// nothing.
//
//boss:hotpath once per shard fan-out and per batch: the hand-out.
func ForEach(ctx context.Context, n, workers int, fn func(i int)) (dispatched int) {
	if n <= 0 {
		return 0
	}
	j := jobs.Get().(*job)
	j.ctx, j.fn, j.n = ctx, fn, n
	j.next.Store(0)
	if workers > 1 {
		hire(j, min(workers, n)-1)
	}
	j.work()
	j.wg.Wait()
	dispatched = min(int(j.next.Load()), n)
	j.ctx, j.fn = nil, nil
	jobs.Put(j)
	return dispatched
}

// job is one ForEach call, shared by the caller and the helpers it hired.
// Recycled through jobs once the call returns.
type job struct {
	ctx  context.Context
	fn   func(i int)
	n    int
	next atomic.Int64 // the next index to hand out; may overshoot n
	wg   sync.WaitGroup
}

var jobs = sync.Pool{New: func() any { return new(job) }}

// work runs the job's indices until they run out or its context dies: each
// participant checks the context, then claims the next index, so the claimed
// indices are always a prefix of [0, n) and every claim below n runs.
//
//boss:hotpath once per ForEach participant.
func (j *job) work() {
	done := j.ctx.Done()
	for {
		select {
		case <-done:
			return
		default:
		}
		i := int(j.next.Add(1) - 1)
		if i >= j.n {
			return
		}
		j.fn(i)
	}
}

// helper is one parked goroutine: it sleeps on wake until a ForEach call
// hires it with a job.
type helper struct {
	// wake has room for one job and is empty while the helper is on the
	// idle list, so hire's send, made under crew.mu, never blocks.
	wake chan *job
}

// crew is the process's helpers: the idle ones, and how many exist.
var crew struct {
	mu    sync.Mutex
	idle  []*helper
	total int
}

// hire gives j want more participants: the helpers a width this wide has
// never had, started on j (spawn); idle helpers; and, for what the crew is
// too busy to give, goroutines that exit with the job (pitchIn).
func hire(j *job, want int) {
	crew.mu.Lock()
	grow := max(want-crew.total, 0)
	crew.total += grow
	for want -= grow; want > 0 && len(crew.idle) > 0; want-- {
		h := crew.idle[len(crew.idle)-1]
		crew.idle = crew.idle[:len(crew.idle)-1]
		j.wg.Add(1)
		h.wake <- j
	}
	crew.mu.Unlock()
	for ; grow > 0; grow-- {
		j.wg.Add(1)
		spawn(j)
	}
	for ; want > 0; want-- {
		j.wg.Add(1)
		go j.pitchIn()
	}
}

// pitchIn is a goroutine of the call's own, for width the busy crew could
// not spare: it works the job alongside the others and exits.
func (j *job) pitchIn() {
	j.work()
	j.wg.Done()
}

// spawn starts one helper, on j.
func spawn(j *job) {
	h := &helper{wake: make(chan *job, 1)}
	h.wake <- j
	go h.park()
}

// park is a helper's life: run each job it is handed, then go back on the
// idle list before releasing the job's caller, so that a caller's next
// ForEach finds every helper it used idle again.
//
//boss:daemon helpers are the worker pool itself and live for the process; a job's end is wg.Done, not the goroutine's.
func (h *helper) park() {
	for j := range h.wake {
		j.work()
		crew.mu.Lock()
		crew.idle = append(crew.idle, h)
		crew.mu.Unlock()
		j.wg.Done()
	}
}
