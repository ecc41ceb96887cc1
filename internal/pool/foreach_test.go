package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// parkHelpers starts the parked helpers a ForEach as wide as width uses, so
// that a goroutine count taken afterwards moves only with the goroutines a
// request starts itself. The leak tests take their baseline after it, at the
// widest width their calls ask for.
func parkHelpers(width int) {
	ForEach(context.Background(), width, width, func(int) {})
}

// TestForEach: every index runs exactly once at every width, including
// widths <= 0 (serially, on the caller) and wider than the work; nested and
// concurrent calls wider than GOMAXPROCS finish; a context cancelled
// mid-hand-out stops it with dispatched exact; no call runs more than its
// width at once; and a steady stream of calls does not raise the goroutine
// count.
func TestForEach(t *testing.T) {
	ctx := context.Background()
	t.Run("widths", func(t *testing.T) {
		for _, workers := range []int{0, 1, 2, 100} {
			for _, n := range []int{0, 1, 17} {
				runs := make([]atomic.Int32, n)
				if got := ForEach(ctx, n, workers, func(i int) { runs[i].Add(1) }); got != n {
					t.Errorf("workers=%d n=%d: dispatched %d", workers, n, got)
				}
				for i := range runs {
					if r := runs[i].Load(); r != 1 {
						t.Errorf("workers=%d n=%d: index %d ran %d times", workers, n, i, r)
					}
				}
			}
		}
	})
	t.Run("serial in order", func(t *testing.T) {
		for _, workers := range []int{-1, 0, 1} {
			var order []int
			ForEach(ctx, 9, workers, func(i int) { order = append(order, i) })
			for i, got := range order {
				if got != i {
					t.Fatalf("workers=%d: order %v", workers, order)
				}
			}
		}
	})
	t.Run("nested", func(t *testing.T) {
		var total atomic.Int32
		ForEach(ctx, 8, 4, func(int) {
			ForEach(ctx, 8, 4, func(int) { total.Add(1) })
		})
		if got := total.Load(); got != 64 {
			t.Fatalf("nested calls ran %d inner indices, want 64", got)
		}
	})
	t.Run("concurrent wider than GOMAXPROCS", func(t *testing.T) {
		width := 3 * runtime.GOMAXPROCS(0)
		var wg sync.WaitGroup
		var total atomic.Int32
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 50 {
					ForEach(ctx, 2*width, width, func(int) { total.Add(1) })
				}
			}()
		}
		wg.Wait()
		if got, want := total.Load(), int32(4*50*2*width); got != want {
			t.Fatalf("ran %d indices, want %d", got, want)
		}
	})
	t.Run("concurrent callers beyond the crew", func(t *testing.T) {
		// More concurrent calls than the parked helpers go round: each must
		// still have its whole width in flight at once.
		const width = 4
		parkHelpers(width)
		crew.mu.Lock()
		callers := crew.total/(width-1) + 2
		crew.mu.Unlock()
		var wg sync.WaitGroup
		for range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var in atomic.Int32
				all := make(chan struct{})
				ForEach(ctx, width, width, func(int) {
					if in.Add(1) == width {
						close(all)
					}
					select {
					case <-all:
					case <-time.After(10 * time.Second):
						t.Errorf("a call of width %d among %d concurrent ones never had its %d indices in flight at once", width, callers, width)
					}
				})
			}()
		}
		wg.Wait()
	})
	t.Run("cancelled mid-hand-out", func(t *testing.T) {
		for _, workers := range []int{1, 2, 8} {
			for _, stop := range []int{0, 5, 63} {
				cctx, cancel := context.WithCancel(ctx)
				const n = 64
				var ran [n]atomic.Bool
				got := ForEach(cctx, n, workers, func(i int) {
					ran[i].Store(true)
					if i == stop {
						cancel()
					}
				})
				cancel()
				if got <= stop || got > n {
					t.Errorf("workers=%d stop=%d: dispatched %d", workers, stop, got)
				}
				if workers == 1 && got != stop+1 {
					t.Errorf("workers=1 stop=%d: dispatched %d, want %d", stop, got, stop+1)
				}
				for i := range ran {
					if ran[i].Load() != (i < got) {
						t.Errorf("workers=%d stop=%d: index %d ran=%v with %d dispatched", workers, stop, i, ran[i].Load(), got)
					}
				}
			}
		}
		dead, cancel := context.WithCancel(ctx)
		cancel()
		if got := ForEach(dead, 10, 4, func(int) { t.Error("ran on a dead context") }); got != 0 {
			t.Errorf("dead context: dispatched %d", got)
		}
	})
	t.Run("width cap", func(t *testing.T) {
		for _, workers := range []int{1, 2, 3, 7} {
			var in, peak atomic.Int32
			ForEach(ctx, 200, workers, func(int) {
				now := in.Add(1)
				for old := peak.Load(); now > old && !peak.CompareAndSwap(old, now); old = peak.Load() {
				}
				runtime.Gosched()
				in.Add(-1)
			})
			if p := peak.Load(); p > int32(workers) {
				t.Errorf("workers=%d: %d ran at once", workers, p)
			}
		}
	})
	t.Run("steady goroutines", func(t *testing.T) {
		parkHelpers(8)
		before := runtime.NumGoroutine()
		for i := range 1000 {
			ForEach(ctx, 1+i%16, 1+i%8, func(int) {})
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("%d goroutines before 1000 calls, %d after", before, after)
		}
	})
}

// TestForEachAllocs: a warm ForEach handed a func value bound once allocates
// nothing and starts no goroutine.
func TestForEachAllocs(t *testing.T) {
	skipUnderRace(t)
	const n, width = 16, 4
	var hits [n]atomic.Int32
	fn := func(i int) { hits[i].Add(1) }
	parkHelpers(width)
	before := runtime.NumGoroutine()
	if allocs := testing.AllocsPerRun(200, func() { ForEach(context.Background(), n, width, fn) }); allocs != 0 {
		t.Errorf("a warm ForEach allocates %.2f, want 0", allocs)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before, %d after", before, after)
	}
	for i := range hits {
		if hits[i].Load() != 201 {
			t.Fatalf("index %d ran %d times over 201 calls", i, hits[i].Load())
		}
	}
}
