package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"boss/internal/cache"
	"boss/internal/docstore"
	"boss/internal/mem"
	"boss/internal/perf"
)

// buildDocs builds a store of n two-field documents and the expected
// payloads.
func buildDocs(t testing.TB, n int, seed int64) (*docstore.Store, [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	words := []string{"bandwidth", "optimized", "search", "accelerator", "storage", "class", "memory"}
	b := docstore.NewBuilder("name", "text")
	texts := make([][]byte, n)
	for i := 0; i < n; i++ {
		var text []byte
		for w := 0; w < 10+rng.Intn(60); w++ {
			text = append(text, words[rng.Intn(len(words))]...)
			text = append(text, ' ')
		}
		texts[i] = text
		if err := b.Add([]byte(fmt.Sprintf("doc%05d", i)), text); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build(), texts
}

func TestFetchEngineRoundTrip(t *testing.T) {
	const n = 500
	ds, texts := buildDocs(t, n, 3)
	for _, cached := range []bool{false, true} {
		var c *cache.Cache
		if cached {
			c = cache.NewSharded(16<<20, 1)
		}
		eng := NewFetchEngine(ds, c)
		m := perf.NewMetrics()
		var buf DocBuf
		for i := 0; i < n; i++ {
			if err := eng.FetchInto(context.Background(), uint32(i), m, &buf); err != nil {
				t.Fatalf("cached=%v doc %d: %v", cached, i, err)
			}
			if buf.DocID != uint32(i) || len(buf.Fields) != 2 {
				t.Fatalf("cached=%v doc %d: buf %+v", cached, i, buf)
			}
			if !bytes.Equal(buf.Fields[1], texts[i]) {
				t.Fatalf("cached=%v doc %d: text mismatch", cached, i)
			}
		}
		buf.Release()
		if m.DocsFetched != n {
			t.Fatalf("cached=%v DocsFetched = %d, want %d", cached, m.DocsFetched, n)
		}
		if cached {
			st := c.Stats()
			if st.DocMisses != int64(ds.NumBlocks()) {
				t.Fatalf("doc misses %d, want one per block %d", st.DocMisses, ds.NumBlocks())
			}
			if st.DocHits != int64(n-ds.NumBlocks()) {
				t.Fatalf("doc hits %d, want %d", st.DocHits, n-ds.NumBlocks())
			}
			if st.PostingHits != 0 || st.PostingMisses != 0 {
				t.Fatalf("posting counters moved on doc traffic: %+v", st)
			}
		}
	}
	// Out-of-range docID is a typed failure, not a panic.
	eng := NewFetchEngine(ds, nil)
	var buf DocBuf
	if err := eng.FetchInto(context.Background(), n, perf.NewMetrics(), &buf); err == nil {
		t.Fatal("out-of-range fetch succeeded")
	}
}

// TestFetchChargeReplayIdentical is the figure-identity invariant for the
// fetch phase: the simulated charges of a fetch sequence are byte-equal
// with and without the host-side cache — hits replay the recorded SCM
// stream, queue hops, and decode cycles.
func TestFetchChargeReplayIdentical(t *testing.T) {
	const n = 300
	ds, _ := buildDocs(t, n, 5)
	seq := make([]uint32, 0, 2000)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		seq = append(seq, uint32(rng.Intn(n)))
	}
	run := func(c *cache.Cache) *perf.Metrics {
		eng := NewFetchEngine(ds, c)
		m := perf.NewMetrics()
		var buf DocBuf
		for _, id := range seq {
			if err := eng.FetchInto(context.Background(), id, m, &buf); err != nil {
				t.Fatal(err)
			}
		}
		buf.Release()
		return m
	}
	plain := run(nil)
	cached := run(cache.NewSharded(32<<20, 2))
	if *plain != *cached {
		t.Fatalf("simulated charges diverge with cache:\nplain:  %+v\ncached: %+v", plain, cached)
	}
	// And across repeated runs (determinism).
	again := run(cache.NewSharded(32<<20, 2))
	if *cached != *again {
		t.Fatalf("simulated charges nondeterministic:\n%+v\n%+v", cached, again)
	}
}

// TestFetchHitPathAllocs pins the doc-block cache-hit fetch path at zero
// allocations per fetched document.
func TestFetchHitPathAllocs(t *testing.T) {
	ds, _ := buildDocs(t, 4*docstore.BlockDocs, 7)
	c := cache.NewSharded(16<<20, 1)
	eng := NewFetchEngine(ds, c)
	m := perf.NewMetrics()
	var buf DocBuf
	// Warm every block and the buffer's field capacity.
	for i := 0; i < ds.NumDocs; i++ {
		if err := eng.FetchInto(context.Background(), uint32(i), m, &buf); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(11))
	ids := make([]uint32, 256)
	for i := range ids {
		ids[i] = uint32(rng.Intn(ds.NumDocs))
	}
	var j int
	avg := testing.AllocsPerRun(400, func() {
		if err := eng.FetchInto(nil, ids[j&255], m, &buf); err != nil {
			t.Fatal(err)
		}
		j++
	})
	buf.Release()
	if avg != 0 {
		t.Fatalf("doc fetch hit path allocates %.2f allocs/op, want 0", avg)
	}
	if st := c.Stats(); st.DocHitRate() == 0 {
		t.Fatalf("hit-path test never hit: %+v", st)
	}
}

// TestFetchCorruptBlock: media corruption after load is caught by the
// per-block CRC gate and typed docstore.ErrCorrupt.
func TestFetchCorruptBlock(t *testing.T) {
	ds, _ := buildDocs(t, docstore.BlockDocs, 13)
	ds.Data[len(ds.Data)/2] ^= 0x20
	eng := NewFetchEngine(ds, cache.NewSharded(1<<20, 1))
	m := perf.NewMetrics()
	var buf DocBuf
	err := eng.FetchInto(context.Background(), 0, m, &buf)
	if !errors.Is(err, docstore.ErrCorrupt) {
		t.Fatalf("err = %v, want docstore.ErrCorrupt", err)
	}
	if !errors.Is(err, mem.ErrMediaUncorrectable) {
		t.Fatalf("err = %v, want mem.ErrMediaUncorrectable for breaker classification", err)
	}
	if m.IntegrityFailures != 1 {
		t.Fatalf("IntegrityFailures = %d, want 1", m.IntegrityFailures)
	}
	if eng.Cache().Stats().ResidentEntries != 0 {
		t.Fatal("corrupt block was published to the cache")
	}
}

// TestFetchFaults exercises the seeded fault injector on the doc path.
func TestFetchFaults(t *testing.T) {
	ds, _ := buildDocs(t, 10*docstore.BlockDocs, 17)

	t.Run("transient retries", func(t *testing.T) {
		plan := &mem.FaultPlan{Seed: 7, TransientRate: 0.2}
		eng := NewFetchEngine(ds, nil)
		eng.SetFault(plan.InjectorFor(0))
		m := perf.NewMetrics()
		var buf DocBuf
		for i := 0; i < ds.NumDocs; i++ {
			if err := eng.FetchInto(context.Background(), uint32(i), m, &buf); err != nil {
				if errors.Is(err, mem.ErrTransientRead) {
					continue // retries exhausted: typed, acceptable at this rate
				}
				t.Fatal(err)
			}
		}
		buf.Release()
		if m.TransientRetries == 0 {
			t.Fatal("no transient retries recorded at 20% rate")
		}
	})

	t.Run("uncorrectable", func(t *testing.T) {
		plan := &mem.FaultPlan{Seed: 3, UncorrectableRate: 0.9}
		eng := NewFetchEngine(ds, nil)
		eng.SetFault(plan.InjectorFor(0))
		m := perf.NewMetrics()
		var buf DocBuf
		sawMedia := false
		for i := 0; i < ds.NumDocs && !sawMedia; i += docstore.BlockDocs {
			if err := eng.FetchInto(context.Background(), uint32(i), m, &buf); err != nil {
				if !errors.Is(err, mem.ErrMediaUncorrectable) {
					t.Fatalf("err = %v, want media error", err)
				}
				sawMedia = true
			}
		}
		if !sawMedia || m.IntegrityFailures == 0 {
			t.Fatalf("no media faults at 90%% rate (failures=%d)", m.IntegrityFailures)
		}
	})

	t.Run("device down", func(t *testing.T) {
		plan := &mem.FaultPlan{Seed: 1, DeadDevices: []int{0}}
		eng := NewFetchEngine(ds, nil)
		eng.SetFault(plan.InjectorFor(0))
		var buf DocBuf
		if err := eng.FetchInto(context.Background(), 0, perf.NewMetrics(), &buf); !errors.Is(err, mem.ErrDeviceDown) {
			t.Fatalf("err = %v, want ErrDeviceDown", err)
		}
	})

	t.Run("deterministic", func(t *testing.T) {
		plan := &mem.FaultPlan{Seed: 42, TransientRate: 0.05}
		run := func() *perf.Metrics {
			eng := NewFetchEngine(ds, nil)
			eng.SetFault(plan.InjectorFor(0))
			m := perf.NewMetrics()
			var buf DocBuf
			for i := 0; i < ds.NumDocs; i++ {
				_ = eng.FetchInto(context.Background(), uint32(i), m, &buf)
			}
			buf.Release()
			return m
		}
		a, b := run(), run()
		if *a != *b {
			t.Fatalf("faulty fetch nondeterministic:\n%+v\n%+v", a, b)
		}
	})
}

// TestFetchCtx: context errors are typed and fetched before any charge.
func TestFetchCtx(t *testing.T) {
	ds, _ := buildDocs(t, docstore.BlockDocs, 19)
	eng := NewFetchEngine(ds, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := perf.NewMetrics()
	var buf DocBuf
	if err := eng.FetchInto(ctx, 0, m, &buf); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m.SeqReadBytes != 0 {
		t.Fatal("cancelled fetch still charged the device")
	}
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if err := eng.FetchInto(dctx, 0, m, &buf); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
}
