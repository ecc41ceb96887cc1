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

// policyFixture is a Fresh two-shard, single-copy cluster on a fake clock
// (backoff sleeps advance it and return at once); shard 1 is the one the
// tests break.
type policyFixture struct {
	cl    *Cluster
	clock *clock.FakeClock
}

const policyFaulty = 1

func policyConfig() Config {
	cfg := DefaultConfig()
	cfg.Workers = 1 // serial sweep: the event order is the request order
	cfg.Resilience = Resilience{
		MaxRetries:       2,
		Seed:             3,
		BreakerThreshold: 5,
		BreakerCooldown:  time.Minute,
	}
	return cfg
}

func newPolicyFixture(t *testing.T, base *Cluster, plan *mem.FaultPlan) *policyFixture {
	t.Helper()
	cfg := policyConfig()
	fake := clock.NewFakeClock(time.Unix(1000, 0))
	cfg.Clock = fake
	cl, err := base.Fresh(cfg)
	if err != nil {
		t.Fatalf("Fresh: %v", err)
	}
	cl.SetFaultPlan(plan)
	return &policyFixture{cl: cl, clock: fake}
}

// trace renders the faulty shard's event log as kind/attempt/backoff — the
// fields the attempt policy decides; error texts name the failing layer and
// legitimately differ between a search and a fetch.
func (f *policyFixture) trace() string {
	var b strings.Builder
	for _, ev := range f.cl.Events(policyFaulty) {
		fmt.Fprintf(&b, "%s:a%d:%v ", ev.Kind, ev.Attempt, ev.Backoff)
	}
	return b.String()
}

// drive issues seven requests (enough to open the breaker and be rejected
// by it), lets the cooldown pass, and issues two more (a half-open probe
// that fails, then a reject).
func (f *policyFixture) drive(request func()) {
	for i := 0; i < 7; i++ {
		request()
	}
	f.clock.Advance(2 * time.Minute)
	request()
	request()
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
		want []string // event kinds the history must contain
	}{
		{
			name: "dead device",
			plan: &mem.FaultPlan{Seed: 1, DeadDevices: []int{policyFaulty}},
			want: []string{"breaker-open", "breaker-reject", "breaker-half-open"},
		},
		{
			name: "every read transient",
			plan: &mem.FaultPlan{Seed: 1, TransientRate: 0.999999},
			want: []string{"backoff", "breaker-open", "breaker-reject", "breaker-half-open"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			search := newPolicyFixture(t, base, tc.plan)
			search.drive(func() { search.cl.SearchCtx(ctx, `"t0"`, 5) })
			fetch := newPolicyFixture(t, base, tc.plan)
			fetch.drive(func() { fetch.cl.FetchBatch(ctx, owned) })

			got, want := fetch.trace(), search.trace()
			if got != want {
				t.Fatalf("faulty shard's history differs\nsearch: %s\n fetch: %s", want, got)
			}
			for _, kind := range tc.want {
				if !strings.Contains(want, kind+":") {
					t.Errorf("history has no %s event: %s", kind, want)
				}
			}
		})
	}

	// A breaker opened by searches sheds the next fetch on that shard
	// without issuing it.
	t.Run("search-opened breaker rejects fetch", func(t *testing.T) {
		f := newPolicyFixture(t, base, &mem.FaultPlan{Seed: 1, DeadDevices: []int{policyFaulty}})
		for i := 0; i < 5; i++ {
			res, err := f.cl.SearchCtx(ctx, `"t0"`, 5)
			if err != nil || !errors.Is(res.ShardErrs[policyFaulty], mem.ErrDeviceDown) {
				t.Fatalf("search %d: err=%v res=%+v", i, err, res)
			}
		}
		before := len(f.cl.Events(policyFaulty))
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
		after := f.cl.Events(policyFaulty)[before:]
		if len(after) != 1 || after[0].Kind != EvBreakerReject {
			t.Fatalf("fetch on an open breaker logged %+v, want one breaker-reject and no attempt", after)
		}
	})
}
