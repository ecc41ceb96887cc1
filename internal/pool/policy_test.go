package pool

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"boss/internal/clock"
	"boss/internal/corpus"
	"boss/internal/mem"
)

// policyFixture is a Fresh two-shard cluster with two copies of each shard
// on a fake clock (backoff sleeps advance it and return at once); shard 1
// is the one the tests break. It keeps two copies because a single copy
// never retries.
type policyFixture struct {
	cl    *Cluster
	clock *clock.FakeClock
	trace strings.Builder
}

const (
	policyFaulty   = 1
	policyReplicas = 2
)

var policyEpoch = time.Unix(1000, 0)

func policyConfig() Config {
	cfg := DefaultConfig()
	cfg.Replicas = policyReplicas
	cfg.Workers = 1 // serial sweep: the counters follow the request order
	return cfg
}

// policyDead is a plan whose only fault is that both copies of the faulty
// shard are dead (copy ri of shard si is device si*Replicas+ri).
func policyDead() *mem.FaultPlan {
	return &mem.FaultPlan{Seed: 1, DeadDevices: []int{policyFaulty * policyReplicas, policyFaulty*policyReplicas + 1}}
}

func newPolicyFixture(t *testing.T, base *Cluster, plan *mem.FaultPlan) *policyFixture {
	t.Helper()
	cfg := policyConfig()
	fake := clock.NewFakeClock(policyEpoch)
	cfg.Clock = fake
	cl, err := base.Fresh(cfg)
	if err != nil {
		t.Fatalf("Fresh: %v", err)
	}
	cl.SetFaultPlan(plan)
	return &policyFixture{cl: cl, clock: fake}
}

// faulty sums the faulty shard's counters over its copies: a search and a
// fetch start their rotation from different copies, so per-copy counts
// may come out mirrored.
func (f *policyFixture) faulty() ReplicaStats {
	var sum ReplicaStats
	for ri := 0; ri < policyReplicas; ri++ {
		st := f.cl.ReplicaStats(policyFaulty, ri)
		sum.Successes += st.Successes
		sum.Failures += st.Failures
		sum.Backoffs += st.Backoffs
		sum.BreakerOpens += st.BreakerOpens
		sum.BreakerHalfOpens += st.BreakerHalfOpens
		sum.BreakerCloses += st.BreakerCloses
		sum.BreakerRejects += st.BreakerRejects
	}
	return sum
}

// drive issues seven requests (enough to open the breakers and be rejected
// by them), lets the cooldown pass, and issues two more (half-open probes
// that fail, then rejects). After each request it appends the faulty
// shard's counters and the clock's reading to the trace: what the attempt
// policy decided, request by request. (Error texts name the failing layer
// and legitimately differ between a search and a fetch.)
func (f *policyFixture) drive(request func()) {
	step := func() {
		request()
		fmt.Fprintf(&f.trace, "%+v @%v\n", f.faulty(), f.clock.Now().Sub(policyEpoch))
	}
	for i := 0; i < 7; i++ {
		step()
	}
	f.clock.Advance(2 * breakerCooldown)
	step()
	step()
}

// TestSearchAndFetchShareAttemptPolicy: searches and fetches run through
// one attempt loop, so under a fault whose outcome does not depend on what
// is read the faulty shard's retry/backoff/breaker history is the same
// whichever kind of work drove it.
func TestSearchAndFetchShareAttemptPolicy(t *testing.T) {
	c := corpus.Generate(corpus.CCNewsLike(0.004))
	base := mustCluster(t, policyConfig(), c, 2)
	owned := []uint32{base.offsets[policyFaulty], base.offsets[policyFaulty] + 1, base.offsets[policyFaulty] + 7}
	ctx := context.Background()

	for _, tc := range []struct {
		name string
		plan *mem.FaultPlan
	}{
		{"dead device", policyDead()},
		{"every read transient", &mem.FaultPlan{Seed: 1, TransientRate: 0.999999}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			search := newPolicyFixture(t, base, tc.plan)
			// Masked to the faulty shard, as the fetch touches no other:
			// only its backoffs move the clock.
			search.drive(func() { runBatch(ctx, search.cl, []BatchQuery{{Expr: `"t0"`, K: 5, ShardMask: 1 << policyFaulty}}) })
			fetch := newPolicyFixture(t, base, tc.plan)
			fetch.drive(func() { fetch.cl.FetchBatch(ctx, owned) })

			got, want := fetch.trace.String(), search.trace.String()
			if got != want {
				t.Fatalf("faulty shard's history differs\nsearch:\n%s fetch:\n%s", want, got)
			}
			if st := search.faulty(); st.Backoffs == 0 || st.BreakerOpens == 0 || st.BreakerRejects == 0 || st.BreakerHalfOpens == 0 {
				t.Errorf("history lacks a backoff, breaker open, reject or half-open: %+v", st)
			}
		})
	}

	// Breakers opened by searches shed the next fetch on that shard
	// without issuing it.
	t.Run("search-opened breaker rejects fetch", func(t *testing.T) {
		f := newPolicyFixture(t, base, policyDead())
		for i := 0; i < breakerThreshold; i++ {
			res, err := f.cl.SearchCtx(ctx, `"t0"`, 5)
			if err != nil || !errors.Is(res.ShardErrs[policyFaulty], mem.ErrDeviceDown) {
				t.Fatalf("search %d: err=%v res=%+v", i, err, res)
			}
		}
		before := f.faulty()
		res, err := f.cl.FetchBatch(ctx, append([]uint32{0}, owned...))
		if err != nil {
			t.Fatalf("FetchBatch: %v", err)
		}
		if !errors.Is(res.ShardErrs[policyFaulty], ErrShardUnavailable) {
			t.Fatalf("faulty shard's fetch error = %v, want ErrShardUnavailable", res.ShardErrs[policyFaulty])
		}
		if res.Degraded != 1<<policyFaulty || len(res.Docs[0].Fields) == 0 || res.Docs[1].Fields != nil {
			t.Fatalf("degraded=%b docs[0]=%d fields docs[1]=%d fields", res.Degraded, len(res.Docs[0].Fields), len(res.Docs[1].Fields))
		}
		after := f.faulty()
		before.BreakerRejects += policyReplicas
		if after != before {
			t.Fatalf("fetch on open breakers moved the counters to %+v, want one reject per copy and no attempt: %+v", after, before)
		}
	})
}
