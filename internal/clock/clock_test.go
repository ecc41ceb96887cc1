package clock

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

var epoch = time.Unix(0, 0)

// Timers fire inline in (deadline, registration) order, at their own
// deadline, and a stopped or retargeted timer obeys its last instruction.
func TestFakeTimersFireInOrder(t *testing.T) {
	c := NewFakeClock(epoch)
	var log string
	note := func(name string) func() {
		return func() { log += fmt.Sprintf("%s@%v ", name, c.Now().Sub(epoch)) }
	}
	c.AfterFunc(3*time.Millisecond, note("c"))
	c.AfterFunc(time.Millisecond, note("a"))
	c.AfterFunc(time.Millisecond, note("b")) // same deadline: registration order
	stopped := c.AfterFunc(2*time.Millisecond, note("stopped"))
	moved := c.AfterFunc(time.Hour, note("moved"))
	if !stopped.Stop() || stopped.Stop() {
		t.Fatal("Stop must report true once, then false")
	}
	if !moved.Reset(2 * time.Millisecond) {
		t.Fatal("Reset of an armed timer must report true")
	}
	c.Advance(10 * time.Millisecond)
	if want := "a@1ms b@1ms moved@2ms c@3ms "; log != want {
		t.Fatalf("fired %q, want %q", log, want)
	}
	if got := c.Now().Sub(epoch); got != 10*time.Millisecond {
		t.Fatalf("clock at %v after Advance(10ms)", got)
	}
	// A fired timer is inactive and can be re-armed.
	if moved.Reset(time.Millisecond) {
		t.Fatal("Reset of a fired timer must report false")
	}
	c.Advance(time.Millisecond)
	if want := "a@1ms b@1ms moved@2ms c@3ms moved@11ms "; log != want {
		t.Fatalf("fired %q, want %q", log, want)
	}
	if len(c.timers) != 0 {
		t.Fatalf("%d timers still listed after all fired or stopped", len(c.timers))
	}
}

// Sleep is an advance by the sleeper: due timers fire inline, so a serial
// caller never waits for somebody else to move the clock; a context that is
// already done is not waited on.
func TestFakeSleep(t *testing.T) {
	c := NewFakeClock(epoch)
	fired := false
	c.AfterFunc(time.Millisecond, func() { fired = true })
	if err := c.Sleep(context.Background(), 2*time.Millisecond); err != nil {
		t.Fatalf("Sleep: %v", err)
	}
	if !fired || c.Now().Sub(epoch) != 2*time.Millisecond {
		t.Fatalf("after Sleep(2ms): fired=%v now=%v", fired, c.Now().Sub(epoch))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep on a dead context: %v", err)
	}
	if c.Now().Sub(epoch) != 2*time.Millisecond {
		t.Fatal("a dead context's Sleep moved the clock")
	}
}

// Two advancers: Advance drops its lock around each callback, so another
// advancer — here the callback itself, in the cluster a sleeping shard
// worker — can move time past the first one's target. The first must not
// overwrite that with the target it computed at entry.
func TestFakeAdvanceIsMonotonicAcrossAdvancers(t *testing.T) {
	c := NewFakeClock(epoch)
	c.AfterFunc(5*time.Millisecond, func() { c.Advance(20 * time.Millisecond) })
	c.Advance(10 * time.Millisecond)
	if got := c.Now().Sub(epoch); got != 25*time.Millisecond {
		t.Fatalf("clock at %v, want 25ms: the outer Advance rewound the inner one", got)
	}

	// The same from several goroutines (run under -race): every reader sees
	// time move forward only, and each sleeper's own sleeps add up.
	const sleepers, naps = 4, 200
	start := c.Now()
	var wg sync.WaitGroup
	for s := 0; s < sleepers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := c.Now()
			for i := 0; i < naps; i++ {
				c.AfterFunc(time.Millisecond, func() {})
				if err := c.Sleep(context.Background(), time.Millisecond); err != nil {
					t.Error(err)
				}
				if now := c.Now(); now.Sub(last) < time.Millisecond {
					t.Errorf("a 1ms sleep moved the clock %v", now.Sub(last))
				} else {
					last = now
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Now().Sub(start); got < naps*time.Millisecond || got > sleepers*naps*time.Millisecond {
		t.Fatalf("clock moved %v over %d sleepers x %d 1ms sleeps", got, sleepers, naps)
	}
}

// The wall clock's Sleep waits d or until the context is done, and reports
// the context's state either way.
func TestWallSleep(t *testing.T) {
	w := Wall()
	start := w.Now()
	if err := w.Sleep(context.Background(), 2*time.Millisecond); err != nil {
		t.Fatalf("Sleep: %v", err)
	}
	if got := w.Now().Sub(start); got < 2*time.Millisecond {
		t.Fatalf("Sleep(2ms) returned after %v", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	w.AfterFunc(time.Millisecond, cancel)
	if err := w.Sleep(ctx, time.Minute); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Sleep: %v", err)
	}
	if err := w.Sleep(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep(0) on a dead context: %v", err)
	}
}
