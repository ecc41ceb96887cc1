package front

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"boss/internal/clock"
	"boss/internal/corpus"
	"boss/internal/mem"
	"boss/internal/oracle"
	"boss/internal/perf"
	"boss/internal/pool"
)

func newTestCluster(t *testing.T) *pool.Cluster {
	t.Helper()
	c := corpus.Generate(corpus.ClueWebLike(0.01))
	cl, err := pool.NewCluster(pool.DefaultConfig(), c, 4)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return cl
}

// TestClusterDegradedExecutesPartialShards verifies a degraded admission
// executes on the mask's shards only, reporting the shed shards in the
// Degraded bitmask with pool.ErrShardShed semantics (PR 5's partial-
// answer machinery), and that the partial answer is the merge of exactly
// the surviving shards.
func TestClusterDegradedExecutesPartialShards(t *testing.T) {
	cl := newTestCluster(t)
	f, err := New(Config{
		BatchTarget: 4,
		MaxQueue:    4,
		Timeout:     50 * time.Millisecond,
		// A filler flight fills the queue to the 0.25 × 4 watermark, so
		// the next admission degrades.
		DegradeWatermark: 0.25,
	}, NewClusterBackend(cl))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Close()

	filler, err := f.Submit(Request{Expr: `"t2"`, K: 20})
	if err != nil {
		t.Fatalf("Submit filler: %v", err)
	}
	tk, err := f.Submit(Request{Expr: `"t1"`, K: 20})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	f.Flush()
	if res := filler.Wait(context.Background()); res.Err != nil || res.Degraded != 0 {
		t.Fatalf("pre-watermark filler: err=%v degraded=%b", res.Err, res.Degraded)
	}
	res := tk.Wait(context.Background())
	if res.Err != nil {
		t.Fatalf("degraded search: %v", res.Err)
	}
	if res.Degraded == 0 {
		t.Fatal("degraded admission produced a complete result")
	}
	if got, want := bits.OnesCount64(res.Degraded), 2; got != want {
		t.Fatalf("degraded shard count = %d, want %d (half of 4)", got, want)
	}
	// The partial answer must equal a direct masked execution.
	mask := (uint64(1)<<4 - 1) &^ res.Degraded
	var br pool.BatchResult
	cl.SearchBatchQueries(context.Background(), []pool.BatchQuery{{Expr: `"t1"`, K: 20, ShardMask: mask}}, &br)
	if br.Errs[0] != nil {
		t.Fatalf("direct masked search: %v", br.Errs[0])
	}
	want := &br.Results[0]
	if err := oracle.Same(res.TopK, want.TopK); err != nil {
		t.Fatalf("partial answer against the direct masked one: %v", err)
	}
}

// TestSharedClockFrontToClusterRetry drives both tiers off one FakeClock:
// the test's Advance fires the front door's deadline flush, the flushed
// batch fails over from a dead copy 0 inside the cluster, and the
// cluster's backoff sleeps move the same clock on. With one advancer at a
// time (the script while it submits, the cluster's one worker while the
// script waits) the front decision log, the per-replica counters and the
// final virtual time are byte-identical run over run, and under -race.
func TestSharedClockFrontToClusterRetry(t *testing.T) {
	c := corpus.Generate(corpus.ClueWebLike(0.005))
	base, err := pool.NewCluster(pool.DefaultConfig(), c, 2)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	epoch := time.Unix(0, 0)
	const slack = 8 * time.Millisecond // Timeout - flushSlack: when a lone batch flushes
	run := func() (trace string, backoffs int, elapsed time.Duration) {
		fake := clock.NewFakeClock(epoch)
		cfg := pool.DefaultConfig()
		cfg.Workers = 1 // one batch worker: the counters follow the request order
		cfg.CacheBytes = 0
		cfg.Replicas = 2
		cfg.Clock = fake
		cl, err := base.Fresh(cfg)
		if err != nil {
			t.Fatalf("Fresh: %v", err)
		}
		plan := &mem.FaultPlan{Seed: 5}
		for si := 0; si < cl.Shards(); si++ {
			plan.DeadDevices = append(plan.DeadDevices, cl.ReplicaDevice(si, 0))
		}
		cl.SetFaultPlan(plan)
		rec := &Recorder{}
		f, err := New(Config{BatchTarget: 64, Timeout: 10 * time.Millisecond, Clock: fake, Recorder: rec},
			NewClusterBackend(cl))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer f.Close()

		const phases = 8 // enough failovers to open copy 0's breaker and be rejected by it
		for phase := 0; phase < phases; phase++ {
			var tickets []*Ticket
			for _, e := range []string{`"t1"`, `"t2" AND "t3"`, `"t4" OR "t5"`, `"t6"`} {
				tk, err := f.Submit(Request{Expr: e, K: 10})
				if err != nil {
					t.Fatalf("Submit(%q): %v", e, err)
				}
				tickets = append(tickets, tk)
			}
			// Lands exactly on the flush deadline and fires it inline: the
			// script is done moving the clock before the batch runs.
			fake.Advance(slack)
			for _, tk := range tickets {
				if res := tk.Wait(context.Background()); res.Err != nil || res.Degraded != 0 {
					t.Fatalf("phase %d: err=%v degraded=%b, want a full answer off copy 1", phase, res.Err, res.Degraded)
				}
			}
		}
		var b strings.Builder
		b.Write(rec.Render())
		var dead pool.ReplicaStats // copy 0 of every shard, summed
		for si := 0; si < cl.Shards(); si++ {
			for ri := 0; ri < cl.Replicas(); ri++ {
				st := cl.ReplicaStats(si, ri)
				fmt.Fprintf(&b, "s%d r%d %+v\n", si, ri, st)
				backoffs += st.Backoffs
				if ri == 0 {
					dead.BreakerOpens += st.BreakerOpens
					dead.BreakerRejects += st.BreakerRejects
				}
			}
		}
		if dead.BreakerOpens == 0 || dead.BreakerRejects == 0 {
			t.Errorf("the dead copies' breakers never opened or never rejected: %+v", dead)
		}
		elapsed = fake.Now().Sub(epoch)
		fmt.Fprintf(&b, "clock %v\n", elapsed)
		return b.String(), backoffs, elapsed - phases*slack
	}

	trace, backoffs, elapsed := run()
	for i := 1; i < 3; i++ {
		if tr, _, _ := run(); tr != trace {
			t.Fatalf("run %d diverged\n--- trace ---\n%s--- vs ---\n%s", i, trace, tr)
		}
	}
	if !strings.Contains(trace, " "+DFlushDeadline.String()+" ") {
		t.Errorf("no deadline flush in the decision log:\n%s", trace)
	}
	// The cluster's sleeps moved the front door's clock: past the script's
	// own advances, virtual time is the backoffs served. Each is a first or
	// second retry's, jittered in [0.5 ms, 2 ms).
	if backoffs == 0 || elapsed < time.Duration(backoffs)*time.Millisecond/2 || elapsed >= time.Duration(backoffs)*2*time.Millisecond {
		t.Errorf("clock moved %v beyond the script's advances for %d backoffs", elapsed, backoffs)
	}
	if t.Failed() {
		t.Logf("trace:\n%s", trace)
	}
}

// errPoisoned marks storage the torture below overwrote.
var errPoisoned = errors.New("front: read a poisoned BatchResult")

// TestRecordReuseTortureClusterBackend is TestRecordReuseTorture's reused
// arm through the front door's backend: mixed batches — depths, shard masks,
// fetches by id and searches with their documents — run through one
// ClusterBackend, whose BatchResult is poisoned between batches (everything
// but the TopK and Docs it handed off). Every Out must equal what a fresh
// cluster answers for its query alone, when its batch returns and again once
// every batch has run.
func TestRecordReuseTortureClusterBackend(t *testing.T) {
	c := corpus.Generate(corpus.CCNewsLike(0.006))
	cl, err := pool.NewCluster(pool.DefaultConfig(), c, 4)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cl.Fresh(pool.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var qs []pool.BatchQuery
	for _, qt := range corpus.AllQueryTypes() {
		for _, q := range corpus.SampleQueries(c, qt, 2, 33) {
			for _, k := range []int{1, 10, 37} {
				for _, mask := range []uint64{0, 0b1011, 0b0110} {
					qs = append(qs, pool.BatchQuery{Expr: q.Expr, K: k, ShardMask: mask}, pool.BatchQuery{Expr: q.Expr, K: k, ShardMask: mask, WithDocs: true})
				}
			}
		}
	}
	alone := func(q pool.BatchQuery) Out {
		out := make([]Out, 1)
		NewClusterBackend(ref).ExecuteBatch(ctx, []pool.BatchQuery{q}, out)
		return out[0]
	}
	var want []Out
	for _, q := range qs {
		want = append(want, alone(q))
	}
	for i := range qs {
		if w := want[i]; w.Err == nil && !qs[i].WithDocs && len(w.TopK) > 0 {
			q := pool.BatchQuery{FetchIDs: make([]uint32, len(w.TopK)), ShardMask: qs[i].ShardMask}
			for j, e := range w.TopK {
				q.FetchIDs[j] = e.DocID
			}
			qs = append(qs, q)
			want = append(want, alone(q))
		}
	}
	check := func(what string, qi int, got Out) {
		t.Helper()
		w := want[qi]
		if fmt.Sprint(got.Err) != fmt.Sprint(w.Err) || !reflect.DeepEqual(got.TopK, w.TopK) || !reflect.DeepEqual(got.Docs, w.Docs) || got.Degraded != w.Degraded {
			t.Errorf("%s %+v:\n got %+v\nwant %+v", what, qs[qi], got, w)
		}
	}

	be := NewClusterBackend(cl)
	var kept []Out
	var order []int
	rng := rand.New(rand.NewSource(7))
	const batch = 16
	for range 3 {
		perm := rng.Perm(len(qs))
		for lo := 0; lo < len(perm); lo += batch {
			idx := perm[lo:min(lo+batch, len(perm))]
			b := make([]pool.BatchQuery, len(idx))
			for i, qi := range idx {
				b[i] = qs[qi]
			}
			out := make([]Out, len(b))
			be.ExecuteBatch(ctx, b, out)
			for i, qi := range idx {
				check("at return", qi, out[i])
			}
			kept, order = append(kept, out...), append(order, idx...)
			poisonBatch(&be.br)
		}
	}
	for i, o := range kept {
		check("after every batch", order[i], o)
	}
}

// poisonBatch overwrites what a BatchResult keeps for its next batch and a
// front-door caller never keeps: the metrics every PerShard points to, every
// ShardErrs, ServedBy and Errs entry, and the results' own counters.
func poisonBatch(br *pool.BatchResult) {
	for i := range br.Results {
		r := &br.Results[i]
		for _, m := range r.PerShard {
			if m != nil {
				*m = perf.Metrics{SeqReadBytes: -1, HostBytes: -1, ComputeTime: -1, BlocksFetched: -1}
			}
		}
		for si := range r.ShardErrs {
			r.ShardErrs[si] = errPoisoned
		}
		for si := range r.ServedBy {
			r.ServedBy[si] = -7
		}
		r.LinkBytes, r.Degraded = -1, ^uint64(0)
		br.Errs[i] = errPoisoned
	}
	br.Err = errPoisoned
}
