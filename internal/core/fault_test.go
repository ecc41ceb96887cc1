package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"boss/internal/cache"
	"boss/internal/compress"
	"boss/internal/corpus"
	"boss/internal/index"
	"boss/internal/mem"
	"boss/internal/oracle"
	"boss/internal/query"
)

// sampleNodes returns a handful of parsed queries spanning all types.
func sampleNodes(t *testing.T, f *fixture) []*query.Node {
	t.Helper()
	var nodes []*query.Node
	for _, qt := range corpus.AllQueryTypes() {
		for _, q := range corpus.SampleQueries(f.c, qt, 4, 99) {
			nodes = append(nodes, query.MustParse(q.Expr))
		}
	}
	if len(nodes) == 0 {
		t.Fatal("no sample queries")
	}
	return nodes
}

func TestRunCtxCancelled(t *testing.T) {
	f := newFixture(t)
	acc := New(f.idx, DefaultOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, node := range sampleNodes(t, f) {
		_, err := acc.exec(ctx, node.Plan(), 10)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled ctx: got %v, want context.Canceled", err)
		}
	}
}

func TestRunCtxDeadlineExceeded(t *testing.T) {
	f := newFixture(t)
	acc := New(f.idx, DefaultOptions())
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	node := sampleNodes(t, f)[0]
	_, err := acc.exec(ctx, node.Plan(), 10)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired deadline: got %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: %v must also wrap context.DeadlineExceeded", err)
	}
}

// A nil context must behave exactly like one that never expires.
func TestRunCtxNilContext(t *testing.T) {
	f := newFixture(t)
	acc := New(f.idx, DefaultOptions())
	for _, node := range sampleNodes(t, f) {
		a, err := acc.exec(nil, node.Plan(), 10) //nolint:staticcheck // nil ctx is part of the contract
		if err != nil {
			t.Fatalf("Exec(nil): %v", err)
		}
		b, err := acc.exec(context.Background(), node.Plan(), 10)
		if err != nil {
			t.Fatalf("Exec(Background): %v", err)
		}
		if err := oracle.Same(a.TopK, b.TopK); err != nil {
			t.Fatalf("Exec(nil) diverged from Exec(Background): %v", err)
		}
	}
}

// A block whose payload no longer matches its build-time CRC must surface
// a typed media error, never a silently wrong score.
func TestCorruptBlockReturnsTypedError(t *testing.T) {
	f := newFixture(t)
	acc := New(f.idx, DefaultOptions())

	// Pick a term and corrupt its first block in place.
	var pl *index.PostingList
	var term string
	for _, tm := range f.idx.Terms() {
		if len(f.idx.Lists[tm].Blocks) >= 1 {
			term, pl = tm, f.idx.Lists[tm]
			break
		}
	}
	pl.Data[pl.Blocks[0].Offset] ^= 0x5a

	_, err := acc.exec(context.Background(), query.Plan{DNF: [][]string{{term}}}, 10)
	if err == nil {
		t.Fatal("query over corrupt block succeeded")
	}
	if !errors.Is(err, mem.ErrMediaUncorrectable) {
		t.Fatalf("corrupt block: got %v, want wrap of mem.ErrMediaUncorrectable", err)
	}

	// Restore and confirm the accelerator recovers fully.
	pl.Data[pl.Blocks[0].Offset] ^= 0x5a
	if _, err := acc.exec(context.Background(), query.Plan{DNF: [][]string{{term}}}, 10); err != nil {
		t.Fatalf("after restore: %v", err)
	}
}

// A malformed payload the checksum gate cannot catch (Checksum == 0, as in
// hand-built lists) reaches the decompression module's fused kernels. They
// must refuse it with the module's error, typed by the core, on a cached
// and an uncached accelerator alike; the cache must neither publish the
// block nor keep the reserved entry pinned.
func TestMalformedUnchecksummedBlockFailsTyped(t *testing.T) {
	c := corpus.Generate(corpus.CCNewsLike(0.004))
	for _, tc := range []struct {
		name    string
		scheme  compress.Scheme
		corrupt func(pl *index.PostingList)
		want    string
	}{
		{"BP width out of range", compress.BP, func(pl *index.PostingList) { pl.Data[pl.Blocks[0].Offset] = 33 }, "decomp: width 33 out of range"},
		{"BP truncated", compress.BP, func(pl *index.PostingList) { pl.Blocks[0].Length = 1 }, "decomp: packed fields truncated"},
		{"OptPFD truncated", compress.OptPFD, func(pl *index.PostingList) { pl.Blocks[0].Length = 1 }, "decomp: PFD payload too short"},
		{"S16 truncated", compress.S16, func(pl *index.PostingList) { pl.Blocks[0].Length = 6 }, "decomp: S16 payload truncated"},
		{"S8b truncated", compress.S8b, func(pl *index.PostingList) { pl.Blocks[0].Length = 9 }, "decomp: S8b payload truncated"},
	} {
		for _, cached := range []bool{false, true} {
			idx := index.Build(c, index.BuildOptions{Scheme: tc.scheme})
			pl := idx.Lists["t0"] // the most frequent term: several full blocks
			saved, first := pl.Blocks[0], pl.Data[pl.Blocks[0].Offset]
			pl.Blocks[0].Checksum = 0
			tc.corrupt(pl)

			var ch *cache.Cache
			if cached {
				ch = cache.New(1 << 20)
			}
			acc := NewCached(idx, DefaultOptions(), ch)
			node := query.MustParse(`"t0"`)
			_, err := acc.exec(context.Background(), node.Plan(), 10)
			prefix := `core: decompression of list "t0" block 0 failed: `
			if err == nil || !strings.HasPrefix(err.Error(), prefix+tc.want) {
				t.Fatalf("%s (cached=%v): got %v, want %s%s…", tc.name, cached, err, prefix, tc.want)
			}
			if cached {
				if st := ch.Stats(); st.PinnedEntries != 0 || st.ResidentEntries != 0 {
					t.Fatalf("%s: after the failed query %d entries pinned, %d resident; want 0, 0", tc.name, st.PinnedEntries, st.ResidentEntries)
				}
			}

			// Restore and confirm the accelerator recovers fully.
			pl.Blocks[0], pl.Data[saved.Offset] = saved, first
			if _, err := acc.exec(context.Background(), node.Plan(), 10); err != nil {
				t.Fatalf("%s (cached=%v): after restore: %v", tc.name, cached, err)
			}
			if st := ch.Stats(); st.PinnedEntries != 0 {
				t.Fatalf("%s: %d entries still pinned after the query finished", tc.name, st.PinnedEntries)
			}
		}
	}
}

// Transient faults at realistic rates must be absorbed by bounded retry:
// queries succeed, metrics record the retries, and results match the
// fault-free run exactly.
func TestTransientFaultsRetriedTransparently(t *testing.T) {
	f := newFixture(t)
	clean := New(f.idx, DefaultOptions())
	faulty := New(f.idx, DefaultOptions())
	plan := &mem.FaultPlan{Seed: 7, TransientRate: 0.01}
	faulty.SetFault(plan.InjectorFor(0))

	var retries int64
	for _, node := range sampleNodes(t, f) {
		want, err := clean.exec(nil, node.Plan(), 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := faulty.exec(nil, node.Plan(), 10)
		if err != nil {
			t.Fatalf("transient plan must be survivable: %v", err)
		}
		if err := oracle.Same(got.TopK, want.TopK); err != nil {
			t.Fatalf("results diverged under transient faults: %v", err)
		}
		retries += got.M.TransientRetries
		if got.M.IntegrityFailures != 0 {
			t.Fatalf("transient-only plan recorded %d integrity failures", got.M.IntegrityFailures)
		}
	}
	if retries == 0 {
		t.Fatal("1% transient rate produced zero retries across the sample set")
	}
}

// An uncorrectable media error is permanent: retries must not mask it and
// the query fails with the typed error.
func TestUncorrectableFaultReturnsTypedError(t *testing.T) {
	f := newFixture(t)
	acc := New(f.idx, DefaultOptions())
	plan := &mem.FaultPlan{Seed: 3, UncorrectableRate: 0.5}
	acc.SetFault(plan.InjectorFor(0))

	sawTyped := false
	for _, node := range sampleNodes(t, f) {
		_, err := acc.exec(nil, node.Plan(), 10)
		if err != nil {
			if !errors.Is(err, mem.ErrMediaUncorrectable) {
				t.Fatalf("failure is not typed: %v", err)
			}
			sawTyped = true
		}
	}
	if !sawTyped {
		t.Fatal("50% uncorrectable rate never failed a query")
	}
}

func TestDeadDeviceReturnsErrDeviceDown(t *testing.T) {
	f := newFixture(t)
	acc := New(f.idx, DefaultOptions())
	plan := &mem.FaultPlan{Seed: 1, DeadDevices: []int{0}}
	acc.SetFault(plan.InjectorFor(0))
	node := sampleNodes(t, f)[0]
	_, err := acc.exec(nil, node.Plan(), 10)
	if !errors.Is(err, mem.ErrDeviceDown) {
		t.Fatalf("dead device: got %v, want wrap of mem.ErrDeviceDown", err)
	}
}

// Fault decisions are a pure function of the plan: the same plan over the
// same queries yields identical errors and identical retry counts.
func TestFaultReplayDeterministic(t *testing.T) {
	f := newFixture(t)
	plan := &mem.FaultPlan{Seed: 42, TransientRate: 0.05, UncorrectableRate: 0.002}
	nodes := sampleNodes(t, f)

	type outcome struct {
		errText string
		retries int64
	}
	runOnce := func() []outcome {
		acc := New(f.idx, DefaultOptions())
		acc.SetFault(plan.InjectorFor(0))
		out := make([]outcome, 0, len(nodes))
		for _, node := range nodes {
			res, err := acc.exec(nil, node.Plan(), 10)
			o := outcome{}
			if err != nil {
				o.errText = err.Error()
			} else {
				o.retries = res.M.TransientRetries
			}
			out = append(out, o)
		}
		return out
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d: replay diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}
