// Package cache implements a sharded, concurrency-safe cache of decoded
// posting blocks for the wall-clock serving path. The corpus's Zipf-
// distributed term popularity means nearly every query touches the same hot
// posting lists; without cross-query reuse each query re-fetches and
// re-decompresses the same blocks even though a single decode is cheap.
// The cache closes that gap: entries are keyed by (posting-list identity,
// block index), decoded values live in cache-owned slabs, and the hit path
// is allocation-free — a shard-mutex map probe returning pinned doc/tf
// slices.
//
// Eviction is CLOCK (second chance): each shard keeps its resident entries
// on a ring with a reference bit set on every hit; the hand clears bits on
// the first pass and evicts the first unreferenced, unpinned entry. Pinned
// entries (refcount > 0) are never evicted, so a reader can hold a block's
// slices across its whole scan without copying. When the byte budget cannot
// be met because everything is pinned, Publish hands the entry back to the
// caller un-inserted ("bypass"): the budget is a hard ceiling, never
// exceeded.
//
// There is no invalidation: an index is immutable once built, and a key
// names its container by a process-wide identity that is never reused, so an
// entry can only become unwanted, never wrong.
//
// A nil *Cache is a cache that never admits: Get misses, Reserve hands out a
// recycled slab, Publish returns the entry caller-owned exactly as a bypass
// does, and Release recycles it when the last pin drops. A reader therefore
// has one decode path whether or not it was given a cache.
//
// The cache stores whatever the publisher decoded, along with the decode
// cycle count the publisher measured, so the accelerator model can charge
// a block exactly the same whether it was found or decoded (the simulated
// timings stay bit-identical with or without the cache): every decoder of a
// scheme reports the same cycle count for the same block.
package cache

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Key identifies one decoded block: the owning container's process-wide
// identity (index.PostingList.ID or docstore.Store.ID), the block index
// within it, and the client class. Class keeps the two ID namespaces from
// colliding now that the cache serves both posting blocks and document
// blocks; its zero value is ClassPosting, so posting-path call sites are
// unchanged and hash to the same shards as before.
type Key struct {
	List  uint64
	Block uint32
	Class uint8
}

// Cache client classes. Stats are split by class so a hit-rate regression
// in one client cannot hide behind the other.
const (
	ClassPosting uint8 = iota // decoded posting blocks (docIDs + tfs)
	ClassDoc                  // decoded document-store blocks (packed bytes)
	numClasses
)

// entryOverheadBytes approximates the budget charge of one resident entry
// beyond its slab: the Entry struct, its map slot, and its ring slot.
const entryOverheadBytes = 128

// slabQuantum rounds slab capacities so recycled slabs fit most blocks
// (2 values per posting × the default 128-posting block).
const slabQuantum = 256

// Entry is one decoded block. Between Get/Publish and Release the entry is
// pinned and Docs/Tfs (posting class) or Data (doc class) return stable,
// immutable slices into the cache-owned slab; after Release the slices
// must not be used.
type Entry struct {
	key    Key
	docs   []uint32
	tfs    []uint32
	data   []byte   // published byte payload (doc-class entries)
	buf    []uint32 // the arena slab backing docs and tfs
	bbuf   []byte   // the arena slab backing data
	cycles int64
	bytes  int64 // budget charge: slab capacities + entryOverheadBytes

	// resident is true for entries inserted into a shard (recycled only by
	// the evictor) and false for bypass entries (recycled by Release when
	// the last pin drops). Written before the entry is shared.
	resident bool

	used atomic.Bool  // CLOCK reference bit
	refs atomic.Int32 // pin count; the evictor skips entries with refs > 0
}

// Docs returns the decoded docIDs. Valid only while the entry is pinned.
func (e *Entry) Docs() []uint32 { return e.docs }

// Tfs returns the decoded term frequencies. Valid only while pinned.
func (e *Entry) Tfs() []uint32 { return e.tfs }

// Data returns the decoded byte payload of a doc-class entry. Valid only
// while the entry is pinned.
func (e *Entry) Data() []byte { return e.data }

// Cycles returns the decode cycle count recorded at publish time, so a
// posting block found in the cache charges the simulated pipeline exactly as
// a fresh decode would. (A document block's cycles are a function of its raw
// length; nothing is recorded for one.)
func (e *Entry) Cycles() int64 { return e.cycles }

// DocsBuf returns a zero-length decode destination for n docIDs inside the
// slab of an entry obtained from Reserve.
func (e *Entry) DocsBuf(n int) []uint32 { return e.buf[:0:n] }

// TfsBuf returns a zero-length decode destination for n term frequencies
// inside the slab, disjoint from DocsBuf's region.
func (e *Entry) TfsBuf(n int) []uint32 { return e.buf[n : n : 2*n] }

// ByteBuf returns an n-byte decode destination inside the byte slab of an
// entry obtained from ReserveBytes.
func (e *Entry) ByteBuf(n int) []byte { return e.bbuf[:n] }

// shard is one lock domain of the cache.
type shard struct {
	mu     sync.Mutex
	m      map[Key]*Entry
	ring   []*Entry // CLOCK ring of resident entries
	hand   int
	bytes  int64 // resident budget charge; never exceeds budget
	budget int64

	// Counters live under the shard mutex so the hit path adds no extra
	// cross-core atomic traffic. Lookup counters are split by Key.Class;
	// evictions and bypasses are capacity effects of the shared budget and
	// stay unsplit.
	hits      [numClasses]int64
	misses    [numClasses]int64
	evictions int64
	bypasses  int64

	_ [64]byte // keep neighbouring shards off this shard's cache lines
}

// Cache is a sharded decoded-block cache with a hard byte budget.
type Cache struct {
	shards []shard
	mask   uint64
}

// slabs recycles entries with their slabs. It belongs to the package, not to
// a Cache, so that a nil *Cache reserves and releases through it too.
var slabs sync.Pool // of *Entry

// New returns a cache with the given byte budget, sharded to GOMAXPROCS
// (rounded up to a power of two) so concurrent queries rarely contend on
// one mutex. A nil *Cache is valid everywhere: it is a cache that never
// admits (see the package comment).
func New(budgetBytes int64) *Cache {
	return NewSharded(budgetBytes, runtime.GOMAXPROCS(0))
}

// NewSharded returns a cache with an explicit shard count (tests and fuzz
// targets use one shard for deterministic eviction order).
func NewSharded(budgetBytes int64, shards int) *Cache {
	if budgetBytes <= 0 {
		return nil
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &Cache{shards: make([]shard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i].m = make(map[Key]*Entry)
		c.shards[i].budget = budgetBytes / int64(n)
	}
	return c
}

// shardFor mixes the key into a shard index.
func (c *Cache) shardFor(k Key) *shard {
	// The class term is zero for ClassPosting, so posting keys map to the
	// same shards (and evict in the same order) as before doc blocks
	// became a second client.
	h := k.List*0x9E3779B97F4A7C15 ^ (uint64(k.Block)+1)*0xBF58476D1CE4E5B9 ^ uint64(k.Class)*0x94D049BB133111EB
	h ^= h >> 29
	return &c.shards[h&c.mask]
}

// Get returns the pinned entry for k, or nil on a miss. The caller must
// Release the entry when done with its slices.
//
//boss:hotpath the cross-query cache hit path; one probe per block fetch.
func (c *Cache) Get(k Key) *Entry {
	if c == nil {
		return nil
	}
	s := c.shardFor(k)
	cls := k.Class % numClasses
	s.mu.Lock()
	e := s.m[k]
	if e == nil {
		s.misses[cls]++
		s.mu.Unlock()
		return nil
	}
	e.refs.Add(1)
	e.used.Store(true)
	s.hits[cls]++
	s.mu.Unlock()
	return e
}

// Reserve returns a private, pinned entry whose slab holds n docIDs plus n
// term frequencies. Decode into DocsBuf(n)/TfsBuf(n), then Publish.
func (c *Cache) Reserve(n int) *Entry { return reserve(2*n, 0) }

// ReserveBytes returns a private, pinned entry whose byte slab holds n
// bytes. Decode into ByteBuf(n), then PublishBytes.
func (c *Cache) ReserveBytes(n int) *Entry { return reserve(0, n) }

// reserve takes a recycled entry (free left it blank) or makes a first one,
// and grows whichever slab is too small for values uint32s and bytes bytes.
//
//boss:pool-escapes the slab leaves with the caller until Publish/Release (arena-slab publish pattern).
func reserve(values, bytes int) *Entry {
	e, _ := slabs.Get().(*Entry)
	if e == nil {
		e = new(Entry)
	}
	if cap(e.buf) < values {
		e.buf = make([]uint32, 0, roundToQuantum(values))
	}
	if cap(e.bbuf) < bytes {
		e.bbuf = make([]byte, 0, roundToQuantum(bytes))
	}
	e.refs.Store(1)
	return e
}

func roundToQuantum(n int) int { return (n + slabQuantum - 1) / slabQuantum * slabQuantum }

// Publish inserts a reserved, decoded entry under k and returns the entry
// the caller should use — either e itself (now resident, still pinned) or,
// if a concurrent publisher won the race, the already-resident entry
// (pinned; e's slab is recycled). When the cache cannot admit it — the
// receiver is nil, the entry exceeds the shard budget, or everything
// resident is pinned — the entry is returned un-inserted and stays
// caller-owned until Release. docs and tfs must be slices of e's slab;
// cycles is the decode cycle count Cycles reports from then on.
func (c *Cache) Publish(k Key, e *Entry, docs, tfs []uint32, cycles int64) *Entry {
	e.docs, e.tfs = docs, tfs
	e.cycles = cycles
	return c.insert(k, e)
}

// PublishBytes is Publish for a doc-class entry reserved with
// ReserveBytes: data must be a slice of e's byte slab.
func (c *Cache) PublishBytes(k Key, e *Entry, data []byte) *Entry {
	e.data = data
	return c.insert(k, e)
}

// insert places a filled entry into its shard under the race/budget rules
// described on Publish.
func (c *Cache) insert(k Key, e *Entry) *Entry {
	if c == nil {
		return e
	}
	e.key = k
	e.bytes = int64(cap(e.buf))*4 + int64(cap(e.bbuf)) + entryOverheadBytes
	s := c.shardFor(k)
	s.mu.Lock()
	if old := s.m[k]; old != nil {
		old.refs.Add(1)
		old.used.Store(true)
		s.mu.Unlock()
		e.refs.Store(0)
		free(e)
		return old
	}
	if e.bytes > s.budget || !s.makeRoom(e.bytes) {
		s.bypasses++
		s.mu.Unlock()
		return e
	}
	e.resident = true
	e.used.Store(true)
	s.m[k] = e
	s.ring = append(s.ring, e)
	s.bytes += e.bytes
	s.mu.Unlock()
	return e
}

// Release drops one pin. Resident entries become evictable again; an entry
// that was never admitted (a bypass, or any entry of a nil cache) returns its
// slab to the pool when its last pin drops.
//
//boss:hotpath one call per block a query finishes with.
func (c *Cache) Release(e *Entry) {
	if e == nil {
		return
	}
	// Read resident before dropping the pin: while pinned the entry cannot
	// be freed, so the flag is stable; the instant the pin drops, a resident
	// entry belongs to the evictor and must not be touched again here.
	resident := e.resident
	if e.refs.Add(-1) == 0 && !resident {
		free(e)
	}
}

// free blanks an unreachable entry and recycles it with its slabs. The entry
// must be unpinned and either never resident or already removed from its
// shard.
func free(e *Entry) {
	e.key = Key{}
	e.docs, e.tfs, e.data = nil, nil, nil
	e.cycles, e.bytes = 0, 0
	e.resident = false
	e.used.Store(false)
	slabs.Put(e)
}

// makeRoom evicts entries until need bytes fit under the shard budget.
// Returns false when the budget cannot be met (all entries pinned). Caller
// holds s.mu.
func (s *shard) makeRoom(need int64) bool {
	for s.bytes+need > s.budget {
		if !s.evictOne() {
			return false
		}
	}
	return true
}

// evictOne runs the CLOCK hand: second-chance losers with no pins are
// evicted; referenced entries get their bit cleared; pinned entries are
// skipped. Returns false when two full sweeps find nothing evictable. Caller
// holds s.mu.
func (s *shard) evictOne() bool {
	for scanned := 0; scanned < 2*len(s.ring); scanned++ {
		if s.hand >= len(s.ring) {
			s.hand = 0
		}
		e := s.ring[s.hand]
		if e.refs.Load() > 0 || e.used.CompareAndSwap(true, false) {
			s.hand++
			continue
		}
		// Unpinned and out of chances: evict. No new pin can appear — Get
		// requires s.mu, which we hold.
		delete(s.m, e.key)
		last := len(s.ring) - 1
		s.ring[s.hand] = s.ring[last]
		s.ring[last] = nil
		s.ring = s.ring[:last]
		s.bytes -= e.bytes
		s.evictions++
		free(e)
		return true
	}
	return false
}

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	// Hits and Misses are totals across both client classes; the
	// Posting*/Doc* fields below split them so a hit-rate regression in
	// one class cannot hide behind the other.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// Bypasses counts publishes that could not be inserted (entry larger
	// than a shard budget, or every resident entry pinned).
	Bypasses int64 `json:"bypasses"`

	// Per-class lookup split: posting blocks (ClassPosting) vs document
	// blocks (ClassDoc).
	PostingHits   int64 `json:"posting_hits"`
	PostingMisses int64 `json:"posting_misses"`
	DocHits       int64 `json:"doc_hits"`
	DocMisses     int64 `json:"doc_misses"`

	ResidentEntries int64 `json:"resident_entries"`
	ResidentBytes   int64 `json:"resident_bytes"`
	PinnedEntries   int64 `json:"pinned_entries"`
	BudgetBytes     int64 `json:"budget_bytes"`

	Shards int `json:"shards"`
}

// HitRate returns hits / (hits + misses) across both classes, or 0
// before any lookup.
func (s Stats) HitRate() float64 {
	return rate(s.Hits, s.Misses)
}

// PostingHitRate returns the posting-class hit rate.
func (s Stats) PostingHitRate() float64 { return rate(s.PostingHits, s.PostingMisses) }

// DocHitRate returns the doc-class hit rate.
func (s Stats) DocHitRate() float64 { return rate(s.DocHits, s.DocMisses) }

func rate(hits, misses int64) float64 {
	if t := hits + misses; t > 0 {
		return float64(hits) / float64(t)
	}
	return 0
}

// Stats snapshots all shards. It takes each shard lock in turn, so the
// numbers are per-shard consistent but not a global atomic cut.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{Shards: len(c.shards)}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.PostingHits += s.hits[ClassPosting]
		st.PostingMisses += s.misses[ClassPosting]
		st.DocHits += s.hits[ClassDoc]
		st.DocMisses += s.misses[ClassDoc]
		st.Hits += s.hits[ClassPosting] + s.hits[ClassDoc]
		st.Misses += s.misses[ClassPosting] + s.misses[ClassDoc]
		st.Evictions += s.evictions
		st.Bypasses += s.bypasses
		st.ResidentEntries += int64(len(s.ring))
		st.ResidentBytes += s.bytes
		st.BudgetBytes += s.budget
		for _, e := range s.ring {
			if e.refs.Load() > 0 {
				st.PinnedEntries++
			}
		}
		s.mu.Unlock()
	}
	return st
}

// checkInvariants verifies per-shard accounting: resident bytes equal the
// sum of entry charges, never exceed the budget, and the ring and the map
// hold the same entries. Tests and the fuzz target call it after every
// operation.
func (c *Cache) checkInvariants() error {
	if c == nil {
		return nil
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		var sum int64
		onRing := make(map[*Entry]bool, len(s.ring))
		for _, e := range s.ring {
			sum += e.bytes
			if onRing[e] {
				s.mu.Unlock()
				return fmt.Errorf("shard %d: entry %v on ring twice", i, e.key)
			}
			onRing[e] = true
			if !e.resident {
				s.mu.Unlock()
				return fmt.Errorf("shard %d: non-resident entry %v on ring", i, e.key)
			}
		}
		if sum != s.bytes {
			s.mu.Unlock()
			return fmt.Errorf("shard %d: bytes=%d but ring sums to %d", i, s.bytes, sum)
		}
		if s.bytes > s.budget {
			s.mu.Unlock()
			return fmt.Errorf("shard %d: resident %d exceeds budget %d", i, s.bytes, s.budget)
		}
		if len(s.m) != len(s.ring) {
			s.mu.Unlock()
			return fmt.Errorf("shard %d: %d map entries but %d on the ring", i, len(s.m), len(s.ring))
		}
		for k, e := range s.m {
			if e.key != k {
				s.mu.Unlock()
				return fmt.Errorf("shard %d: map key %v holds entry keyed %v", i, k, e.key)
			}
			if !onRing[e] {
				s.mu.Unlock()
				return fmt.Errorf("shard %d: map entry %v missing from ring", i, k)
			}
		}
		s.mu.Unlock()
	}
	return nil
}
