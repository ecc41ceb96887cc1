package mem

import "errors"

// Fault injection for the memory substrate.
//
// Real SCM pool nodes degrade: reads fail transiently under thermal
// stress, blocks go uncorrectable past the device's ECC budget, and whole
// nodes drop off the fabric. A FaultPlan describes such a regime; an
// Injector applies it to one device (shard).
//
// Every decision is a pure function of (plan seed, device, term key,
// block, attempt) via splitmix64 mixing — never of wall-clock time,
// goroutine scheduling, or global counters — so a chaos run replays
// event-for-event under any concurrency, and `go test -race` schedules
// cannot change outcomes. With a nil Injector every code path is
// byte-identical to the fault-free model.

// Typed fault errors. Layers above wrap these with fmt.Errorf("...: %w",
// err) so callers match with errors.Is across the whole stack.
var (
	// ErrTransientRead is a retryable read failure (e.g. a thermal or
	// disturb error that a re-read usually clears).
	ErrTransientRead = errors.New("mem: transient read error")
	// ErrMediaUncorrectable is a permanent media error: the block's
	// on-device ECC/CRC check failed and re-reads will not help.
	ErrMediaUncorrectable = errors.New("mem: uncorrectable media error")
	// ErrDeviceDown reports that the whole device (node/shard) is dead.
	ErrDeviceDown = errors.New("mem: device down")
)

// Fault classifies the outcome of one injected access decision.
type Fault uint8

// Fault kinds, in increasing severity.
const (
	FaultNone Fault = iota
	FaultTransient
	FaultUncorrectable
	FaultDeviceDown
)

// String names the fault kind.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultTransient:
		return "transient"
	case FaultUncorrectable:
		return "uncorrectable"
	case FaultDeviceDown:
		return "device-down"
	default:
		return "?"
	}
}

// FaultPlan is a deterministic, seeded description of the faults to
// inject across a cluster of devices. The zero value injects nothing.
type FaultPlan struct {
	// Seed drives every probabilistic decision. Two runs with the same
	// plan see the same faults at the same accesses.
	Seed int64
	// TransientRate is the per-access probability of a retryable read
	// error in [0, 1).
	TransientRate float64
	// UncorrectableRate is the per-access probability of a permanent
	// media error in [0, 1).
	UncorrectableRate float64
	// DeadDevices lists device indices that never answer.
	DeadDevices []int
}

// Empty reports whether the plan injects nothing at all.
func (p *FaultPlan) Empty() bool {
	return p == nil ||
		(p.TransientRate == 0 && p.UncorrectableRate == 0 &&
			len(p.DeadDevices) == 0)
}

// InjectorFor builds the injector applying this plan to one device.
// Returns nil for an empty plan so callers keep the exact fault-free
// fast path.
func (p *FaultPlan) InjectorFor(device int) *Injector {
	if p.Empty() {
		return nil
	}
	in := &Injector{
		seed:          mix64(uint64(p.Seed) ^ 0x9e3779b97f4a7c15*uint64(device+1)),
		transient:     p.TransientRate,
		uncorrectable: p.UncorrectableRate,
	}
	for _, d := range p.DeadDevices {
		if d == device {
			in.dead = true
		}
	}
	return in
}

// Injector applies a FaultPlan to one device. Safe for concurrent use:
// it is immutable after construction and every decision method is pure.
type Injector struct {
	seed          uint64
	transient     float64
	uncorrectable float64
	dead          bool
}

// Dead reports whether the whole device is down.
func (in *Injector) Dead() bool { return in != nil && in.dead }

// BlockFault decides the outcome of reading one identified block on its
// attempt'th (re-)read. key identifies the data being read (a stable
// hash of the posting-list term, so decisions survive process restarts
// and index rebuilds); attempt varies the draw so retries of a transient
// fault can succeed while media errors stay media errors.
//
//boss:hotpath
func (in *Injector) BlockFault(key uint64, block uint32, attempt uint32) Fault {
	if in.dead {
		return FaultDeviceDown
	}
	if in.transient == 0 && in.uncorrectable == 0 {
		return FaultNone
	}
	// The uncorrectable draw ignores the attempt: a truly bad block is
	// bad on every re-read. The transient draw is attempt-salted so
	// retries usually clear it.
	base := mix64(in.seed ^ mix64(key^uint64(block)<<32))
	if uniform01(base) < in.uncorrectable {
		return FaultUncorrectable
	}
	h := mix64(base + uint64(attempt)*0xbf58476d1ce4e5b9)
	if uniform01(h) < in.transient {
		return FaultTransient
	}
	return FaultNone
}

// StableKey hashes an identifying string (e.g. a posting-list term) to
// the 64-bit key BlockFault expects. FNV-1a: deterministic across
// processes, unlike runtime map hashing or pointer identity.
func StableKey(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed bijection
// used to turn structured identities into uniform draws.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// uniform01 maps a hash to [0, 1) using the top 53 bits.
func uniform01(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}
