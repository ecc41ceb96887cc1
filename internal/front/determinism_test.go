package front

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"boss/internal/clock"
)

// runScript drives one full front-door lifecycle against a fake clock:
// deadline flushes, size flushes, coalescing, pressure degradation, and
// queue-full rejection. Completions are synchronized through the backend
// gate so every recorded decision — including the queue depth it was taken
// under — is a pure function of the script.
func runScript(t *testing.T) []byte {
	t.Helper()
	clk := clock.NewFakeClock(time.Unix(0, 0))
	rec := &Recorder{}
	be := &fakeBackend{shards: 8, block: make(chan struct{}, 100)}
	f, err := New(Config{
		BatchTarget:      4,
		MaxQueue:         6,
		Timeout:          10 * time.Millisecond,
		DegradeWatermark: 0.5,
		Clock:            clk,
		Recorder:         rec,
	}, be)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	var tickets []*Ticket
	submit := func(expr string) {
		tk, err := f.Submit(Request{Expr: expr})
		if err == nil {
			tickets = append(tickets, tk)
		}
	}
	// drain waits every outstanding ticket, emptying the system so the
	// next phase starts from a known queue depth.
	drain := func(batches int) {
		for i := 0; i < batches; i++ {
			be.block <- struct{}{}
		}
		for _, tk := range tickets {
			tk.Wait(context.Background())
		}
		tickets = tickets[:0]
	}

	// Phase 1: three arrivals coalesce to two flights; the deadline's
	// slack budget forces the flush.
	submit(`"x" AND "y"`)
	submit(`"y" AND "x"`) // attach
	submit(`"z"`)
	clk.Advance(8 * time.Millisecond)
	drain(1)

	// Phase 2: three flights fill the queue to the 0.5 × 6 watermark, so
	// the fourth degrades; as the fourth pending flight it also trips the
	// size flush.
	submit(`"p"`)
	submit(`"q"`)
	submit(`"r"`)
	submit(`"u"`) // degrade; size flush
	drain(1)

	// Phase 3: fill to MaxQueue against a blocked backend, then reject.
	for _, e := range []string{`"c0"`, `"c1"`, `"c2"`, `"c3"`, `"c4"`, `"c5"`} {
		submit(e) // past the 0.5 watermark these degrade
	}
	submit(`"c6"`) // queue full: reject
	submit(`"c0"`) // attach still works at capacity
	f.Flush()
	drain(2)

	f.Close()
	return rec.Render()
}

// TestDecisionLogDeterminism replays one arrival script twice and
// requires byte-identical decision logs: every batch boundary, rejection,
// and degradation lands identically run over run (and under -race).
func TestDecisionLogDeterminism(t *testing.T) {
	first := runScript(t)
	for run := 1; run < 3; run++ {
		if next := runScript(t); !bytes.Equal(first, next) {
			t.Fatalf("decision log diverged on run %d:\n--- run 0 ---\n%s--- run %d ---\n%s",
				run, first, run, next)
		}
	}
	// The script must actually exercise the whole decision surface.
	log := string(first)
	for _, kind := range []DecisionKind{
		DAdmit, DAttach, DRejectFull, DDegradePressure,
		DFlushSize, DFlushDeadline, DFlushManual,
	} {
		if !strings.Contains(log, " "+kind.String()+" ") {
			t.Errorf("script never produced a %q decision:\n%s", kind, log)
		}
	}
}

// TestBatchBoundariesDeterministic replays the script and checks the
// backend saw identical batch shapes both times.
func TestBatchBoundariesDeterministic(t *testing.T) {
	shapes := func() []int {
		clk := clock.NewFakeClock(time.Unix(0, 0))
		be := &fakeBackend{shards: 4}
		f, err := New(Config{BatchTarget: 3, Timeout: 10 * time.Millisecond, Clock: clk}, be)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		var tickets []*Ticket
		for i, e := range []string{`"a"`, `"b"`, `"a"`, `"c"`, `"d"`, `"e"`, `"f"`} {
			tk, err := f.Submit(Request{Expr: e})
			if err != nil {
				t.Fatalf("Submit %d: %v", i, err)
			}
			tickets = append(tickets, tk)
			clk.Advance(time.Millisecond)
		}
		clk.Advance(20 * time.Millisecond)
		for _, tk := range tickets {
			tk.Wait(context.Background())
		}
		f.Close()
		return be.batchSizes()
	}
	a, b := shapes(), shapes()
	if len(a) != len(b) {
		t.Fatalf("batch counts diverged: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("batch boundaries diverged: %v vs %v", a, b)
		}
	}
}
