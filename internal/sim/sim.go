// Package sim provides the small transaction-level simulation kernel used by
// the memory-system and accelerator models.
//
// The kernel is deliberately simple: virtual time measured in picoseconds and
// "resources" that serialize access with a given service time (bandwidth
// servers). There is no event queue: models advance virtual time only by
// requesting service from resources (Resource.Acquire returns the completion
// time), and the kernel tracks utilization so harness code can report
// bandwidth figures.
//
// All times are expressed as sim.Time (picoseconds) so that both a 1 GHz
// accelerator clock (1000 ps/cycle) and sub-nanosecond DRAM events can be
// represented exactly with integers.
package sim

// Time is a point in virtual time, in picoseconds.
type Time int64

// Duration is a span of virtual time, in picoseconds.
type Duration = Time

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond  Duration = 1000
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Seconds converts a Duration to floating-point seconds.
func Seconds(d Duration) float64 { return float64(d) / float64(Second) }

// FromSeconds converts floating-point seconds to a Duration.
func FromSeconds(s float64) Duration { return Duration(s * float64(Second)) }

// Resource is a serially-reused facility (a bus, a memory channel, a divider).
// Requests are granted in arrival order; each request occupies the resource
// for its service time. Acquire returns the time at which the request
// completes. Resources also accumulate busy time so utilization can be
// reported.
type Resource struct {
	name     string
	freeAt   Time
	busy     Duration
	requests int64
}

// NewResource returns a named resource that is free at time zero.
func NewResource(name string) *Resource {
	return &Resource{name: name}
}

// Name reports the resource name given at construction.
func (r *Resource) Name() string { return r.name }

// Acquire requests service starting no earlier than at, occupying the
// resource for d. It returns the completion time. The request waits behind
// any earlier request still in service (FIFO).
func (r *Resource) Acquire(at Time, d Duration) Time {
	start := at
	if r.freeAt > start {
		start = r.freeAt
	}
	end := start + d
	r.freeAt = end
	r.busy += d
	r.requests++
	return end
}

// FreeAt reports when the resource next becomes free.
func (r *Resource) FreeAt() Time { return r.freeAt }

// BusyTime reports the total service time accumulated.
func (r *Resource) BusyTime() Duration { return r.busy }

// Requests reports the number of Acquire calls.
func (r *Resource) Requests() int64 { return r.requests }

// Utilization reports busy time as a fraction of elapsed time (0 if elapsed
// is zero).
func (r *Resource) Utilization(elapsed Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	u := float64(r.busy) / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}

// Reset returns the resource to its initial state.
func (r *Resource) Reset() {
	r.freeAt = 0
	r.busy = 0
	r.requests = 0
}
