package clock

import (
	"context"
	"slices"
	"sync"
	"time"
)

// FakeClock is a deterministic Clock. Virtual time moves only by Advance
// and by sleepers (Sleep advances by its own duration), and every due
// timer fires inline on the advancing goroutine in (deadline,
// registration) order. With one goroutine driving it at a time — an
// arrival script, a cluster at Workers = 1 — a replayed request sequence
// reproduces every flush, shed, retry and breaker decision; with several
// it is race-free, but their advances interleave as scheduled.
type FakeClock struct {
	mu     sync.Mutex
	now    time.Time
	seq    int
	timers []*fakeTimer // the armed ones only, in no particular order
}

// NewFakeClock returns a fake clock seeded at start.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{now: start}
}

// Now returns the fake clock's current time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AfterFunc registers fn to fire when the clock advances past d from now.
func (c *FakeClock) AfterFunc(d time.Duration, fn func()) Timer {
	t := &fakeTimer{c: c, fn: fn}
	t.Reset(d)
	return t
}

// Sleep advances virtual time by d, firing due timers inline, so a serial
// caller never waits for somebody else to move the clock. A context that
// is already done is not waited on.
func (c *FakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if ctx.Err() == nil {
		c.Advance(d)
	}
	return ctx.Err()
}

// Advance moves the clock forward by d, firing every due timer inline in
// (deadline, registration) order. Callbacks run without the clock's lock
// held, so they may read Now, retarget timers and advance the clock
// themselves. Advances overlap the way concurrent sleeps do: if a callback
// or another goroutine has moved time past this call's target meanwhile,
// time stays there — it never moves backwards.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	end := c.now.Add(d)
	for {
		t := c.nextDueLocked(end)
		if t == nil {
			break
		}
		if t.at.After(c.now) {
			c.now = t.at
		}
		c.disarmLocked(t)
		c.mu.Unlock()
		t.fn()
		c.mu.Lock()
	}
	if end.After(c.now) {
		c.now = end
	}
	c.mu.Unlock()
}

// nextDueLocked picks the earliest armed timer at or before end.
func (c *FakeClock) nextDueLocked(end time.Time) *fakeTimer {
	var best *fakeTimer
	for _, t := range c.timers {
		if t.at.After(end) {
			continue
		}
		if best == nil || t.at.Before(best.at) || (t.at.Equal(best.at) && t.seq < best.seq) {
			best = t
		}
	}
	return best
}

// disarmLocked takes t off the list (a run that arms a timer per request
// must not scan its history) and reports whether it was armed.
func (c *FakeClock) disarmLocked(t *fakeTimer) bool {
	i := slices.Index(c.timers, t)
	if i >= 0 {
		c.timers = slices.Delete(c.timers, i, i+1)
	}
	return i >= 0
}

type fakeTimer struct {
	c   *FakeClock
	fn  func()
	at  time.Time
	seq int
}

func (t *fakeTimer) Reset(d time.Duration) bool {
	c := t.c
	c.mu.Lock()
	defer c.mu.Unlock()
	was := slices.Contains(c.timers, t)
	if !was {
		c.timers = append(c.timers, t)
	}
	c.seq++
	t.at, t.seq = c.now.Add(d), c.seq
	return was
}

func (t *fakeTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	return t.c.disarmLocked(t)
}
