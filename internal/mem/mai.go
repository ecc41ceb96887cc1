package mem

import "boss/internal/sim"

// TLB models the local translation buffer inside BOSS's Memory Access
// Interface. With 2 GB huge pages and 1 K entries it covers the node's
// entire 2 TB physical space (Section IV-D), so after warm-up every lookup
// hits; the model still counts lookups and charges a walk penalty on the
// rare cold miss.
type TLB struct {
	pageBits uint
	entries  map[uint64]struct{}
	// order records insertion order for FIFO eviction. Evicting `for k :=
	// range entries` picked a map-order-dependent victim, which made the
	// post-eviction hit/miss sequence — and therefore simulated time —
	// nondeterministic across runs (bosslint simdeterminism finding).
	order    []uint64
	head     int
	capacity int
	hits     int64
	misses   int64
}

// DefaultTLBEntries and DefaultPageBits reproduce the paper's configuration
// (1 K entries, 2 GB pages).
const (
	DefaultTLBEntries = 1024
	DefaultPageBits   = 31 // 2 GB
)

// TLBMissPenalty is the page-walk latency charged on a miss.
const TLBMissPenalty = 120 * sim.Nanosecond

// NewTLB returns a TLB with the given capacity and page size.
func NewTLB(capacity int, pageBits uint) *TLB {
	return &TLB{
		pageBits: pageBits,
		entries:  make(map[uint64]struct{}, capacity),
		capacity: capacity,
	}
}

// Lookup translates addr, returning the added latency (zero on a hit).
func (t *TLB) Lookup(addr uint64) sim.Duration {
	page := addr >> t.pageBits
	if _, ok := t.entries[page]; ok {
		t.hits++
		return 0
	}
	t.misses++
	if len(t.entries) >= t.capacity {
		// Evict the oldest entry (FIFO); with 2 GB pages this effectively
		// never happens for a 2 TB node, but when it does the victim must
		// not depend on map iteration order.
		delete(t.entries, t.order[t.head])
		t.head++
		if t.head >= len(t.order)/2 && t.head > 0 {
			t.order = append(t.order[:0], t.order[t.head:]...)
			t.head = 0
		}
	}
	t.entries[page] = struct{}{}
	t.order = append(t.order, page)
	return TLBMissPenalty
}

// Hits and Misses report lookup outcomes.
func (t *TLB) Hits() int64   { return t.hits }
func (t *TLB) Misses() int64 { return t.misses }

// MAI is BOSS's Memory Access Interface: every memory request from the
// cores flows through it, getting translated by the local TLB and issued to
// the node's channels.
type MAI struct {
	node *Node
	tlb  *TLB
}

// NewMAI wraps a node with a default-configured TLB.
func NewMAI(node *Node) *MAI {
	return &MAI{node: node, tlb: NewTLB(DefaultTLBEntries, DefaultPageBits)}
}

// TLB returns the interface's translation buffer.
func (m *MAI) TLB() *TLB { return m.tlb }

// Read translates and issues a read, returning completion time.
func (m *MAI) Read(at sim.Time, addr uint64, size int, pattern Pattern) sim.Time {
	at += m.tlb.Lookup(addr)
	return m.node.Read(at, addr, size, pattern)
}

// Write translates and issues a write, returning completion time.
func (m *MAI) Write(at sim.Time, addr uint64, size int) sim.Time {
	at += m.tlb.Lookup(addr)
	return m.node.Write(at, addr, size)
}
