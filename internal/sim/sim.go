// Package sim provides the virtual time units of the paper's models.
//
// All times are expressed as sim.Time (picoseconds) so that both a 1 GHz
// accelerator clock (1000 ps/cycle) and sub-nanosecond DRAM events can be
// represented exactly with integers. Nothing here advances time: the models
// charge durations into perf.Metrics, and internal/perf's roofline composes
// them.
package sim

// Time is a point in virtual time, in picoseconds.
type Time int64

// Duration is a span of virtual time, in picoseconds.
type Duration = Time

// Common durations.
const (
	Nanosecond  Duration = 1000
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Seconds converts a Duration to floating-point seconds.
func Seconds(d Duration) float64 { return float64(d) / float64(Second) }

// FromSeconds converts floating-point seconds to a Duration.
func FromSeconds(s float64) Duration { return Duration(s * float64(Second)) }
