// Package core exercises ctxflow inside a serving-path package.
package core

import "context"

type Model struct{}

// Search is the context-blind sibling; SearchCtx carries the deadline.
func (m *Model) Search(q string) int { return len(q) }

func (m *Model) SearchCtx(ctx context.Context, q string) int { return len(q) }

// Run / RunCtx are package-level siblings.
func Run(n int) int { return n }

func RunCtx(ctx context.Context, n int) int { return n }

// freshRoot severs the caller's deadline twice over.
func freshRoot(m *Model, q string) int {
	ctx := context.Background() // want `context\.Background severs the caller's deadline in a serving path`
	return m.SearchCtx(ctx, q)
}

// freshTODO is the TODO flavor.
func freshTODO(m *Model, q string) int {
	return m.SearchCtx(context.TODO(), q) // want `context\.TODO severs the caller's deadline in a serving path`
}

// nilGuarded uses the accepted public-API shape: a nil context parameter
// is replaced by a root. No finding.
func nilGuarded(ctx context.Context, m *Model, q string) int {
	if ctx == nil {
		ctx = context.Background()
	}
	return m.SearchCtx(ctx, q)
}

// executorRoot is a deliberate root, and really creates one: waived.
//
//boss:ctx-root the executor daemon outlives every request context.
func executorRoot(m *Model, q string) int {
	return m.SearchCtx(context.Background(), q)
}

// staleRoot carries the waiver but creates no root context.
//
//boss:ctx-root left behind after the refactor.
func staleRoot(ctx context.Context, m *Model, q string) int { // want `stale //boss:ctx-root marker: staleRoot creates no root context`
	return m.SearchCtx(ctx, q)
}

// dropsSibling holds a context but calls the context-blind method.
func dropsSibling(ctx context.Context, m *Model, q string) int {
	return m.Search(q) // want `call to Search drops the caller's context: context-aware sibling SearchCtx exists`
}

// dropsPkgSibling holds a context but calls the context-blind function.
func dropsPkgSibling(ctx context.Context, n int) int {
	return Run(n) // want `call to Run drops the caller's context: context-aware sibling RunCtx exists`
}

// threaded calls the context-aware forms: no findings.
func threaded(ctx context.Context, m *Model, q string) int {
	return m.SearchCtx(ctx, q) + RunCtx(ctx, 1)
}

// blindCaller has no context parameter, so the sibling rule does not
// apply (there is nothing to thread).
func blindCaller(m *Model, q string) int {
	return m.Search(q)
}

// spinsBlind retries forever without observing cancellation.
func spinsBlind(ctx context.Context, m *Model, q string) int {
	for { // want `unbounded loop in spinsBlind cannot observe cancellation`
		if m.SearchCtx(ctx, q) > 0 {
			return 1
		}
	}
}

// spinsAware checks ctx.Err every iteration: no finding.
func spinsAware(ctx context.Context, m *Model, q string) int {
	for {
		if ctx.Err() != nil {
			return 0
		}
		if m.SearchCtx(ctx, q) > 0 {
			return 1
		}
	}
}

// boundedLoop has a condition, so rule 4 does not apply.
func boundedLoop(ctx context.Context, m *Model, q string) int {
	total := 0
	for i := 0; i < 3; i++ {
		total += m.SearchCtx(ctx, q)
	}
	return total
}

// hedged is the hedged-dispatch shape done right: both attempts derive
// from the caller's context via WithCancel, the loser is cancelled, and
// results travel over cap-1 buffered channels. No findings.
func hedged(ctx context.Context, m *Model, q string) int {
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	pch := make(chan int, 1)
	go func() { pch <- m.SearchCtx(pctx, q) }()
	bctx, bcancel := context.WithCancel(ctx)
	defer bcancel()
	bch := make(chan int, 1)
	go func() { bch <- m.SearchCtx(bctx, q) }()
	select {
	case r := <-pch:
		bcancel()
		return r
	case r := <-bch:
		pcancel()
		return r
	}
}

// hedgedSevered spawns its backup from a fresh root: cancelling the
// request no longer cancels the backup, which keeps charging the
// backend after the caller has gone.
func hedgedSevered(ctx context.Context, m *Model, q string) int {
	pch := make(chan int, 1)
	go func() { pch <- m.SearchCtx(ctx, q) }()
	bctx := context.Background() // want `context\.Background severs the caller's deadline in a serving path`
	bch := make(chan int, 1)
	go func() { bch <- m.SearchCtx(bctx, q) }()
	select {
	case r := <-pch:
		return r
	case r := <-bch:
		return r
	}
}

// hedgedBlindWait drains hedge results forever without ever observing
// cancellation: a runner that never delivers wedges the wait.
func hedgedBlindWait(ctx context.Context, results chan int) int {
	for { // want `unbounded loop in hedgedBlindWait cannot observe cancellation`
		if r := <-results; r > 0 {
			return r
		}
	}
}
