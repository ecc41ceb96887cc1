// Package sim is a fixture: a small event-driven simulation kernel with
// just enough surface for the map-iteration rule to see calls that feed
// event-queue and metrics state. Its own path sits inside
// the analyzer's scope, so the code here must itself be clean.
package sim

// Engine is a fake simulation engine with an event queue.
type Engine struct {
	events []uint64
}

// Schedule enqueues an event; on timestamp ties, insertion order decides
// which event pops first — which is exactly why feeding it from a map range
// is a determinism bug.
func (e *Engine) Schedule(at uint64) {
	e.events = append(e.events, at)
}

// Stats is a fake metrics sink.
type Stats struct {
	n map[string]float64
}

// Add accumulates a metric.
func (s *Stats) Add(name string, v float64) {
	if s.n == nil {
		s.n = map[string]float64{}
	}
	s.n[name] += v
}

// Reset clears a stats sink.
func (s *Stats) Reset() { s.n = nil }
