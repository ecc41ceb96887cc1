// Package pool mirrors the serving path's retry loop: serving code is in
// scope, so it may wait only through an injected clock — a raw host timer
// makes breaker and backoff decisions depend on the machine, not on the
// request sequence.
package pool

import (
	"context"
	"time"
)

// Clock is the fixture's stand-in for internal/clock.Clock.
type Clock interface {
	Sleep(ctx context.Context, d time.Duration) error
}

// retryInjected backs off on the injected clock: a fake clock replays it
// identically, and nothing here reads the host's time.
func retryInjected(ctx context.Context, clk Clock, attempt func() error, backoff time.Duration) error {
	for {
		err := attempt()
		if err == nil {
			return nil
		}
		if clk.Sleep(ctx, backoff) != nil {
			return err
		}
		backoff *= 2
	}
}

// retryRawTimer is the same loop on a host timer.
func retryRawTimer(ctx context.Context, attempt func() error, backoff time.Duration) error {
	for {
		err := attempt()
		if err == nil {
			return nil
		}
		t := time.NewTimer(backoff) // want `wall-clock call time\.NewTimer`
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return err
		}
		backoff *= 2
	}
}

// retrySleep backs off on a raw sleep, which no context can cut short.
func retrySleep(attempt func() error, backoff time.Duration) error {
	for {
		err := attempt()
		if err == nil {
			return nil
		}
		time.Sleep(backoff) // want `wall-clock call time\.Sleep`
		backoff *= 2
	}
}
