// Package clock is the serving stack's one source of time. The front door
// (deadlines, token-bucket refill, the batch flush timer) and the cluster
// (breaker cooldowns, retry backoff) read, wait and arm timers only through
// a Clock, so every batching, shedding, retry and breaker decision is a pure
// function of (config, request sequence, clock readings). Production runs on
// Wall; tests and the chaos sweep share one FakeClock across both tiers and
// replay identical request sequences into byte-identical decision logs and
// event traces.
//
//boss:wallclock the production Clock is the host clock; the rest of the serving stack reads time through it.
package clock

import (
	"context"
	"time"
)

// Clock supplies time to serving code.
type Clock interface {
	Now() time.Time
	// AfterFunc schedules fn to run once after d, on an unspecified
	// goroutine, and returns a timer that can be retargeted.
	AfterFunc(d time.Duration, fn func()) Timer
	// Sleep waits d, or until ctx is done if that comes first, and returns
	// ctx.Err(): nil means the wait ran its course and ctx is still live.
	Sleep(ctx context.Context, d time.Duration) error
}

// Timer is the retargetable handle AfterFunc returns; *time.Timer
// satisfies it.
type Timer interface {
	Reset(d time.Duration) bool
	Stop() bool
}

// wall is the production Clock: a zero-size value, so holding it in a
// Clock allocates nothing.
type wall struct{}

// Wall returns the production wall clock.
func Wall() Clock { return wall{} }

func (wall) Now() time.Time { return time.Now() }

func (wall) AfterFunc(d time.Duration, fn func()) Timer { return time.AfterFunc(d, fn) }

func (wall) Sleep(ctx context.Context, d time.Duration) error {
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
	}
	return ctx.Err()
}
