// Package cache implements a sharded, concurrency-safe cache of decoded
// posting blocks for the wall-clock serving path. The corpus's Zipf-
// distributed term popularity means nearly every query touches the same hot
// posting lists; without cross-query reuse each query re-fetches and
// re-decompresses the same blocks even though a single decode is cheap.
// The cache closes that gap: a block is found by position, the way the
// paper's block-fetch module finds it — the cache keeps one Table per
// container (posting list or document store), an array with one slot per
// block — decoded values live in cache-owned slabs, and the hit path is
// allocation-free and takes no lock: a slot load and an atomic pin returning
// pinned doc/tf slices.
//
// Eviction is CLOCK (second chance): each shard keeps its resident entries
// on a ring with a reference bit set on every hit; the hand clears bits on
// the first pass and evicts the first unreferenced, unpinned entry. Pinned
// entries (pin count > 0) are never evicted, so a reader can hold a block's
// slices across its whole scan without copying. When the byte budget cannot
// be met because everything is pinned, Publish hands the entry back to the
// caller un-inserted ("bypass"): the budget is a hard ceiling, never
// exceeded.
//
// Admission is TinyLFU (Einziger, Friedman & Manes, ACM TOS 2017): a
// doorkeeper in front of a frequency sketch. Below the budget a publish is
// admitted at once. A publish that would have to evict something, to a slot
// that is not marked, instead marks the slot with the missedOnce sentinel and
// returns the entry caller-owned, counted as a bypass. The mark costs the hit
// path nothing — Get cannot pin it, so a marked slot is a miss like an empty
// one — and no memory: it is a pointer in the slot the block would occupy.
// A marked block's next publish is admitted only if a count-min sketch of
// recent frequency (sketch.go) rates it above the CLOCK victim it would
// evict; otherwise it too is declined as a bypass (Stats.Rejected) and keeps
// its mark. The sketch counts every publish (a miss) and every hit that sets
// a reference bit the hand had cleared, and halves its counters as they
// accrue, so an old mark or an old burst of hits buys nothing. Eviction
// empties the slot, so an evicted block is a first miss again. A shard sizes its sketch from what it holds
// the first time it must evict; a shard that never fills has none, and its
// hit path writes nothing for it. A block decoded at line rate is cheap to
// redo, which is why the paper's device keeps none; a block asked for less
// often than the one it would push out is not worth the eviction.
//
// There is no invalidation: an index is immutable once built, and a table
// names its container by a process-wide identity that is never reused, so an
// entry can only become unwanted, never wrong. A table lives as long as its
// cache for the same reason: nothing retires a container.
//
// A nil *Cache is a cache that never admits: its Table is nil, whose Get
// misses and whose Publish returns the entry caller-owned exactly as a bypass
// does; Reserve hands out a recycled slab and Release recycles it when the
// last pin drops. A reader therefore has one decode path whether or not it
// was given a cache.
//
// The cache stores whatever the publisher decoded, along with the decode
// cycle count the publisher measured, so the accelerator model can charge
// a block exactly the same whether it was found or decoded (the simulated
// timings stay bit-identical with or without the cache): every decoder of a
// scheme reports the same cycle count for the same block.
package cache

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Key identifies one decoded block: the owning container's process-wide
// identity (index.PostingList.ID or docstore.Store.ID), the block index
// within it, and the client class. Class keeps the two ID namespaces from
// colliding now that the cache serves both posting blocks and document
// blocks; its zero value is ClassPosting. Readers address blocks through a
// Table; the key is what an entry carries to say whose block it holds, and
// what picks its shard.
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

// entryOverheadBytes is the budget charge of one resident entry beyond its
// slab: the Entry struct (96 B), its table slot and its ring slot (8 B each).
const entryOverheadBytes = 128

// Slabs come in power-of-two size classes: class c holds minSlabBytes<<c
// bytes, so a posting slab of the smallest class holds 16 values (8
// postings), and a slab of the smallest class that holds a block is under
// twice its payload unless it is of the smallest class of all.
const (
	minSlabBytes   = 64
	numSlabClasses = 32
)

// An entry's state word holds its pin count and, above it, the resident
// flag: set while the entry sits in a table slot and on its shard's ring
// (recycled only by the evictor), clear for an entry that is private to a
// publisher, was never admitted (recycled by Release when the last pin
// drops) or is free. The two share one atomic word so that a reader, who
// holds no lock, can take a pin only while the entry is resident, and the
// evictor can claim an entry only while it has no pins.
const residentBit = 1 << 31

// Entry is one decoded block. Between Get/Publish and Release the entry is
// pinned and Docs/Tfs (posting class) or Data (doc class) return stable,
// immutable slices into the cache-owned slab; after Release the slices
// must not be used.
type Entry struct {
	key Key
	tab *Table // the table whose slot key.Block holds a resident entry
	// An entry holds one slab, kept for its whole life: buf for a posting
	// entry, bbuf for a doc entry, the other nil. The slab's capacity is its
	// size class; its length is the published payload — n docIDs followed by
	// n term frequencies, or the decoded bytes — and zero while unpublished.
	buf    []uint32
	bbuf   []byte
	cycles int64
	bytes  int64 // budget charge: slab bytes + entryOverheadBytes

	used  atomic.Bool   // CLOCK reference bit
	state atomic.Uint32 // pin count | residentBit
}

// Docs returns the decoded docIDs. Valid only while the entry is pinned.
func (e *Entry) Docs() []uint32 {
	n := len(e.buf) / 2
	return e.buf[:n:n]
}

// Tfs returns the decoded term frequencies. Valid only while pinned.
func (e *Entry) Tfs() []uint32 {
	n := len(e.buf) / 2
	return e.buf[n : 2*n : 2*n]
}

// Data returns the decoded byte payload of a doc-class entry. Valid only
// while the entry is pinned.
func (e *Entry) Data() []byte { return e.bbuf[:len(e.bbuf):len(e.bbuf)] }

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

// slabBytes is the size of the entry's slab, whichever kind it is.
func (e *Entry) slabBytes() int { return 4*cap(e.buf) + cap(e.bbuf) }

// pin takes one pin on e if e is resident, and reports whether it did. Every
// pin on an entry that someone else can reach is taken here: the CAS succeeds
// only on a state that had the resident bit, so a stale pointer to an entry
// that has since been evicted (and perhaps recycled as a publisher's private
// entry) can never add a pin to it.
func (e *Entry) pin() bool {
	for {
		s := e.state.Load()
		if s&residentBit == 0 {
			return false
		}
		if e.state.CompareAndSwap(s, s+1) {
			return true
		}
	}
}

// touch sets the CLOCK reference bit, without dirtying a hot entry's cache
// line when it is already set, and reports whether it was the one to set it:
// the first hit since the hand cleared the bit.
func (e *Entry) touch() bool {
	return !e.used.Load() && e.used.CompareAndSwap(false, true)
}

// shard is one lock domain of the cache: everything that changes which
// entries are resident — the CLOCK ring, the byte budget, publish and
// eviction. Looking a block up needs none of it (Table.Get).
type shard struct {
	mu     sync.Mutex
	ring   []*Entry // CLOCK ring of resident entries
	hand   int
	bytes  int64 // resident budget charge; never exceeds budget
	budget int64

	// freq is the admission sketch: nil until the shard first has to evict,
	// set once under the mutex, and read without it by Get to count a hit.
	freq atomic.Pointer[sketch]

	// Evictions and bypasses are capacity effects of the shared budget,
	// counted under the mutex and not split by class. rejected counts the
	// bypasses the admission sketch declined.
	evictions int64
	bypasses  int64
	rejected  int64

	_ [64]byte // keep the lookup counters off the mutex's cache line

	// Lookup counters, split by Key.Class. Lookups hold no lock, so these are
	// atomics on a line of their own.
	hits   [numClasses]atomic.Int64
	misses [numClasses]atomic.Int64

	_ [64]byte // keep neighbouring shards off this shard's cache lines
}

// tableID names a container to the table registry.
type tableID struct {
	list  uint64
	class uint8
}

// Table is the cache's block table for one container: one slot per block,
// holding the block's resident entry, the missedOnce mark, or nil. It
// belongs to the cache, not to the container — several caches can serve one
// set of posting lists at once (pool.Cluster.Fresh) — and a reader resolves
// it once (Cache.Table) and then finds each block by position.
type Table struct {
	c     *Cache
	list  uint64
	class uint8

	// slots is written under the slot's shard mutex (publish stores an entry
	// or the mark, eviction stores nil) and read without one. The array is
	// exact-size for a container whose block count was declared and never
	// replaced then; only a Key-addressed publish beyond the end regrows it
	// (grow), and a reader that still holds the old array is safe for the
	// reason any reader of a stale slot is (Get).
	slots atomic.Pointer[[]atomic.Pointer[Entry]]
}

// Cache is a decoded-block cache with a hard byte budget: a registry of
// per-container block tables over sharded CLOCK rings.
type Cache struct {
	shards []shard
	mask   uint64

	mu     sync.RWMutex // guards tables; taken before any shard mutex
	tables map[tableID]*Table
}

// slabs recycles entries with their slabs: slabs[ClassPosting][c] holds
// entries with a posting slab of size class c, slabs[ClassDoc][c] entries
// with a byte slab of that class. The pools belong to the package, not to a
// Cache, so that a nil *Cache reserves and releases through them too.
var slabs [numClasses][numSlabClasses]sync.Pool // of *Entry

// slabClass returns the smallest size class that holds size bytes.
func slabClass(size int) int {
	if size <= minSlabBytes {
		return 0
	}
	return bits.Len(uint(size-1)) - bits.Len(minSlabBytes-1)
}

// missedOnce marks a table slot whose block was declined on a miss that
// would have evicted something (insert). Its state word is zero and nothing
// ever pins it, so Get finds a marked slot exactly as it finds an empty one.
var missedOnce Entry

// New returns a cache with the given byte budget, sharded to GOMAXPROCS
// (rounded up to a power of two) so concurrent publishers rarely contend on
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
	c := &Cache{shards: make([]shard, n), mask: uint64(n - 1), tables: make(map[tableID]*Table)}
	for i := range c.shards {
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

// Table returns the cache's block table for the container with the given
// identity and class, creating it on first use with exactly blocks slots. A
// caller that knows its container's block count declares it here and may then
// address any block below it; a nil cache has a nil table.
func (c *Cache) Table(list uint64, class uint8, blocks int) *Table {
	if c == nil {
		return nil
	}
	id := tableID{list, class}
	c.mu.RLock()
	t := c.tables[id]
	c.mu.RUnlock()
	if t == nil {
		c.mu.Lock()
		if t = c.tables[id]; t == nil {
			t = &Table{c: c, list: list, class: class}
			slots := make([]atomic.Pointer[Entry], blocks)
			t.slots.Store(&slots)
			c.tables[id] = t
		}
		c.mu.Unlock()
	}
	if blocks > len(*t.slots.Load()) {
		t.grow(blocks)
	}
	return t
}

// grow replaces the slot array with one of at least blocks slots, at least
// doubling it: the Key-addressed wrappers never declare a block count and
// extend their table a block at a time. Slots are written under shard
// mutexes, so moving them takes every shard's, in index order.
func (t *Table) grow(blocks int) {
	shards := t.c.shards
	for i := range shards {
		shards[i].mu.Lock()
	}
	if old := *t.slots.Load(); len(old) < blocks {
		grown := make([]atomic.Pointer[Entry], max(blocks, 2*len(old)))
		for i := range old {
			grown[i].Store(old[i].Load())
		}
		t.slots.Store(&grown)
	}
	for i := range shards {
		shards[i].mu.Unlock()
	}
}

// Get returns the pinned entry for block b, or nil on a miss. The caller must
// Release the entry when done with its slices. A nil table always misses.
//
// Get takes no lock, so the pointer it loads from the slot may be stale by
// the time it is used: the evictor may have claimed the entry, cleared the
// slot and recycled entry and slab. Hence the order — pin, then check the
// key, then read. The pin succeeds only on a resident entry, which cannot be
// recycled while pinned, so whatever is read after it is stable; and a
// resident entry's key says whose block it holds, so an entry recycled for
// another block shows the wrong key, is released and reported as a miss. No
// field of the entry but its state word is touched before both succeed.
//
//boss:hotpath the cross-query cache hit path; one call per block fetch.
func (t *Table) Get(b int) *Entry {
	if t == nil {
		return nil
	}
	k := Key{List: t.list, Block: uint32(b), Class: t.class}
	s := t.c.shardFor(k)
	cls := k.Class % numClasses
	if slots := *t.slots.Load(); uint(b) < uint(len(slots)) {
		if e := slots[b].Load(); e != nil && e.pin() {
			if e.key == k {
				// A hit that sets a bit the hand cleared counts in the sketch.
				if e.touch() {
					if sk := s.freq.Load(); sk != nil {
						sk.add(keyHash(k))
					}
				}
				s.hits[cls].Add(1)
				return e
			}
			t.c.Release(e)
		}
	}
	s.misses[cls].Add(1)
	return nil
}

// Get, Publish and PublishBytes address a block by Key: wrappers over the
// key's table for callers that hold no handle (bench/'s cache kernels, tests).
// They declare no block count, so a publish extends the table to reach its
// block. Nothing on the serving path uses them.
func (c *Cache) Get(k Key) *Entry {
	return c.Table(k.List, k.Class, 0).Get(int(k.Block))
}

// Publish is Table.Publish by Key.
func (c *Cache) Publish(k Key, e *Entry, docs, tfs []uint32, cycles int64) *Entry {
	return c.Table(k.List, k.Class, int(k.Block)+1).Publish(int(k.Block), e, docs, tfs, cycles)
}

// PublishBytes is Table.PublishBytes by Key.
func (c *Cache) PublishBytes(k Key, e *Entry, data []byte) *Entry {
	return c.Table(k.List, k.Class, int(k.Block)+1).PublishBytes(int(k.Block), e, data)
}

// Reserve returns a private, pinned entry whose slab holds n docIDs plus n
// term frequencies. Decode into DocsBuf(n)/TfsBuf(n), then Publish.
func (c *Cache) Reserve(n int) *Entry { return reserve(ClassPosting, 8*n) }

// ReserveBytes returns a private, pinned entry whose byte slab holds n
// bytes. Decode into ByteBuf(n), then PublishBytes.
func (c *Cache) ReserveBytes(n int) *Entry { return reserve(ClassDoc, n) }

// reserve takes a recycled entry (free left it blank) whose slab is of the
// kind class stores and of the size class that holds size bytes, or makes a
// first one.
//
//boss:pool-escapes the slab leaves with the caller until Publish/Release (arena-slab publish pattern).
func reserve(class uint8, size int) *Entry {
	sc := slabClass(size)
	e, _ := slabs[class][sc].Get().(*Entry)
	if e == nil {
		e = new(Entry)
		if class == ClassPosting {
			e.buf = make([]uint32, 0, minSlabBytes<<sc/4)
		} else {
			e.bbuf = make([]byte, 0, minSlabBytes<<sc)
		}
	}
	// A free entry's state is zero and nobody changes it: pin requires the
	// resident bit. So the first pin is a plain store.
	e.state.Store(1)
	return e
}

// Publish inserts a reserved, decoded entry as block b and returns the entry
// the caller should use — either e itself (now resident, still pinned) or,
// if a concurrent publisher won the race, the already-resident entry
// (pinned; e's slab is recycled). When the cache does not admit it — the
// table is nil; admitting it would evict and the block's slot does not
// carry the mark of an earlier miss, or the sketch rates the block no
// hotter than the victim (see the package comment); or the entry exceeds
// the shard budget or everything resident is pinned — the entry is
// returned un-inserted and stays caller-owned until Release. docs and tfs
// must be DocsBuf(n) and TfsBuf(n) of e, each filled with n values: the
// entry keeps n, and Docs and Tfs view its slab again. cycles is the decode
// cycle count Cycles reports from then on.
func (t *Table) Publish(b int, e *Entry, docs, tfs []uint32, cycles int64) *Entry {
	e.buf = e.buf[:2*len(docs)]
	e.cycles = cycles
	return t.insert(b, e)
}

// PublishBytes is Publish for a doc-class entry reserved with
// ReserveBytes: data must be ByteBuf(len(data)) of e.
func (t *Table) PublishBytes(b int, e *Entry, data []byte) *Entry {
	e.bbuf = e.bbuf[:len(data)]
	return t.insert(b, e)
}

// insert places a filled entry into slot b and its shard under the
// race/budget rules described on Publish.
func (t *Table) insert(b int, e *Entry) *Entry {
	if t == nil {
		return e
	}
	e.key = Key{List: t.list, Block: uint32(b), Class: t.class}
	e.tab = t
	e.bytes = int64(e.slabBytes()) + entryOverheadBytes
	s := t.c.shardFor(e.key)
	s.mu.Lock()
	slot := &(*t.slots.Load())[b]
	// Only the holder of s.mu clears a resident bit or a slot, so the pin on an
	// entry found in the slot cannot fail (the missedOnce mark is not one).
	old := slot.Load()
	if old != nil && old.pin() {
		// A concurrent publisher won. e was never admitted: dropping its one
		// pin recycles it.
		old.touch()
		s.mu.Unlock()
		t.c.Release(e)
		return old
	}
	// Every publish is a miss, and the sketch counts it once the shard has
	// one; the shard sizes one to what it holds the first time it is full.
	full := s.bytes+e.bytes > s.budget
	sk := s.freq.Load()
	if sk == nil && full {
		sk = newSketch(len(s.ring))
		s.freq.Store(sk)
	}
	var h uint64
	if sk != nil {
		h = keyHash(e.key)
		sk.addMiss(h)
	}
	// Admitting e would evict: only a block that has missed before may, and
	// only in place of entries the sketch rates colder.
	if full {
		admit := false
		switch {
		case old != &missedOnce:
			slot.Store(&missedOnce)
		case e.bytes <= s.budget:
			admit = s.makeRoom(e.bytes, sk.estimate(h))
		}
		if !admit {
			s.bypasses++
			s.mu.Unlock()
			return e
		}
	}
	// The key is in place before the resident bit, the resident bit before
	// the slot: a reader that can pin e can trust its key.
	e.used.Store(true)
	e.state.Add(residentBit)
	slot.Store(e)
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
	// The state the drop leaves decides, not a field read afterwards: the
	// instant its pin drops a resident entry belongs to the evictor and must
	// not be touched again here, while a state of zero — no pins, not
	// resident, so no slot holds it and nobody can pin it — is ours to free.
	if e.state.Add(^uint32(0)) == 0 {
		free(e)
	}
}

// free blanks an unreachable entry and recycles it with its slab, to the
// pool of the slab's kind and size class. The entry's state must be zero:
// unpinned, and either never resident or claimed by the evictor and already
// cleared from its slot.
func free(e *Entry) {
	e.key, e.tab = Key{}, nil
	e.buf, e.bbuf = e.buf[:0], e.bbuf[:0]
	e.cycles, e.bytes = 0, 0
	e.used.Store(false)
	kind := ClassPosting
	if e.bbuf != nil {
		kind = ClassDoc
	}
	slabs[kind][slabClass(e.slabBytes())].Put(e)
}

// makeRoom evicts CLOCK victims until need bytes fit under the shard budget,
// each one only if the sketch estimates it below freq, the estimate of the
// block that needs the room. It returns false when a victim is estimated no
// colder (counted as a rejection; the hand stays on the victim, which the
// next publish is compared against unless a hit has set its bit since) or
// nothing is evictable (all entries pinned). Caller holds s.mu; the shard
// has a sketch.
func (s *shard) makeRoom(need int64, freq int) bool {
	sk := s.freq.Load()
	for s.bytes+need > s.budget {
		v := s.victim()
		if v == nil {
			return false
		}
		if sk.estimate(keyHash(v.key)) >= freq {
			s.rejected++
			return false
		}
		s.evict(v)
	}
	return true
}

// victim runs the CLOCK hand to the next entry it may evict and returns it,
// leaving the hand on it: referenced entries get their bit cleared and pinned
// entries are skipped. Returns nil when two full sweeps find nothing
// evictable. Caller holds s.mu.
func (s *shard) victim() *Entry {
	for scanned := 0; scanned < 2*len(s.ring); scanned++ {
		if s.hand >= len(s.ring) {
			s.hand = 0
		}
		if e := s.ring[s.hand]; e.state.Load() == residentBit && !e.used.CompareAndSwap(true, false) {
			return e
		}
		s.hand++
	}
	return nil
}

// evict removes the victim under the hand. Unpinned when victim chose it is
// not enough without a lock on the readers: the entry is claimed by taking
// its state from "resident, no pins" to zero in one step, which fails if a
// reader pinned it since, and after which no reader can. A failed claim moves
// the hand on and evicts nothing. Caller holds s.mu.
func (s *shard) evict(e *Entry) {
	if !e.state.CompareAndSwap(residentBit, 0) {
		s.hand++
		return
	}
	// Clear the slot before the entry can be recycled, so the slot never
	// names a free entry.
	(*e.tab.slots.Load())[e.key.Block].Store(nil)
	last := len(s.ring) - 1
	s.ring[s.hand] = s.ring[last]
	s.ring[last] = nil
	s.ring = s.ring[:last]
	s.bytes -= e.bytes
	s.evictions++
	free(e)
}

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	// Hits and Misses are totals across both client classes; the
	// Posting*/Doc* fields below split them so a hit-rate regression in
	// one class cannot hide behind the other.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// Bypasses counts publishes handed back un-inserted by a non-nil cache:
	// a block's first miss while admitting it would evict, a later miss the
	// frequency sketch declines (both the admission rule in the package
	// comment), an entry larger than a shard budget, or one arriving when
	// every resident entry is pinned.
	Bypasses int64 `json:"bypasses"`
	// Rejected counts the bypasses the sketch declined: a marked block's
	// publish whose estimate did not beat the CLOCK victim's. It is a subset
	// of Bypasses.
	Rejected int64 `json:"rejected"`

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
		st.PostingHits += s.hits[ClassPosting].Load()
		st.PostingMisses += s.misses[ClassPosting].Load()
		st.DocHits += s.hits[ClassDoc].Load()
		st.DocMisses += s.misses[ClassDoc].Load()
		st.Evictions += s.evictions
		st.Bypasses += s.bypasses
		st.Rejected += s.rejected
		st.ResidentEntries += int64(len(s.ring))
		st.ResidentBytes += s.bytes
		st.BudgetBytes += s.budget
		for _, e := range s.ring {
			if e.state.Load() != residentBit {
				st.PinnedEntries++
			}
		}
		s.mu.Unlock()
	}
	st.Hits = st.PostingHits + st.DocHits
	st.Misses = st.PostingMisses + st.DocMisses
	return st
}

// checkInvariants verifies the accounting and the structure, with every
// shard locked: per shard, resident bytes equal the sum of entry charges and
// never exceed the budget; every ring entry is on one ring once, on the
// shard its key hashes to, has the resident bit set and sits in the slot its
// key names, and holds exactly one slab, of its class's kind and of the
// smallest size class that holds its payload, charged at that slab plus
// entryOverheadBytes; every non-nil, unmarked slot of every table
// holds an entry that is on a ring (so no slot names a free or never-admitted
// entry); the missedOnce mark is on no ring and never pinned; and the
// rejections are bypasses. Tests and the fuzz target call it after every
// operation.
func (c *Cache) checkInvariants() error {
	if c == nil {
		return nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i := range c.shards {
		c.shards[i].mu.Lock()
		defer c.shards[i].mu.Unlock()
	}
	onRing := make(map[*Entry]bool)
	for i := range c.shards {
		s := &c.shards[i]
		var sum int64
		for _, e := range s.ring {
			sum += e.bytes
			if onRing[e] {
				return fmt.Errorf("shard %d: entry %v on a ring twice", i, e.key)
			}
			onRing[e] = true
			if e.state.Load()&residentBit == 0 {
				return fmt.Errorf("shard %d: non-resident entry %v on ring", i, e.key)
			}
			if c.shardFor(e.key) != s {
				return fmt.Errorf("shard %d: entry %v belongs to another shard", i, e.key)
			}
			t := e.tab
			if t == nil || t != c.tables[tableID{e.key.List, e.key.Class}] {
				return fmt.Errorf("shard %d: ring entry %v is not under its cache's table", i, e.key)
			}
			if slots := *t.slots.Load(); int(e.key.Block) >= len(slots) || slots[e.key.Block].Load() != e {
				return fmt.Errorf("shard %d: ring entry %v is not in its table slot", i, e.key)
			}
			posting := e.key.Class == ClassPosting
			if (e.buf != nil) != posting || (e.bbuf != nil) == posting {
				return fmt.Errorf("shard %d: ring entry %v does not hold exactly one slab of its class's kind", i, e.key)
			}
			slab, payload := e.slabBytes(), 4*len(e.buf)+len(e.bbuf)
			if slab != minSlabBytes<<slabClass(payload) {
				return fmt.Errorf("shard %d: ring entry %v holds a %d-byte slab for a %d-byte payload", i, e.key, slab, payload)
			}
			if e.bytes != int64(slab)+entryOverheadBytes {
				return fmt.Errorf("shard %d: ring entry %v is charged %d for a %d-byte slab", i, e.key, e.bytes, slab)
			}
		}
		if sum != s.bytes {
			return fmt.Errorf("shard %d: bytes=%d but ring sums to %d", i, s.bytes, sum)
		}
		if s.bytes > s.budget {
			return fmt.Errorf("shard %d: resident %d exceeds budget %d", i, s.bytes, s.budget)
		}
		if s.rejected > s.bypasses {
			return fmt.Errorf("shard %d: %d rejections but %d bypasses", i, s.rejected, s.bypasses)
		}
	}
	if onRing[&missedOnce] {
		return fmt.Errorf("the missedOnce mark is on a ring")
	}
	if st := missedOnce.state.Load(); st != 0 {
		return fmt.Errorf("the missedOnce mark has state %#x, want 0", st)
	}
	// A ring entry sits in the one slot its key names, so a slot entry that is
	// on a ring at all is on exactly one, and in no other slot.
	for id, t := range c.tables {
		slots := *t.slots.Load()
		for b := range slots {
			e := slots[b].Load()
			if e == nil || e == &missedOnce {
				continue
			}
			if !onRing[e] {
				return fmt.Errorf("table %v slot %d holds an entry (keyed %v) that is on no ring", id, b, e.key)
			}
			if want := (Key{List: id.list, Block: uint32(b), Class: id.class}); e.key != want {
				return fmt.Errorf("table %v slot %d holds entry keyed %v", id, b, e.key)
			}
		}
	}
	return nil
}
