// Package slabarena exercises poolhygiene over the arena-slab publish
// pattern internal/cache uses: Reserve carves a pooled slab whose ownership
// transfers to a longer-lived structure (Publish), and the release half puts
// it back once the last reader unpins it. The Get side is waived with
// //boss:pool-escapes; the Put side still owes a visible reset. The cache
// recycles its slabs by size class, from an array of pools indexed by the
// class, so the same rules hold for a pool reached through an index.
package slabarena

import (
	"math/bits"
	"sync"
)

type slab struct {
	words []uint32
	used  int
}

// Release clears the slab for reuse.
func (s *slab) Release() {
	s.words = s.words[:0]
	s.used = 0
}

var slabPool = sync.Pool{New: func() interface{} { return new(slab) }}

// reserve carves a slab that the caller will publish into the cache; the
// object deliberately outlives this call.
//
//boss:pool-escapes published slabs live in the cache until eviction.
func reserve(n int) *slab {
	s := slabPool.Get().(*slab)
	if cap(s.words) < n {
		s.words = make([]uint32, 0, n)
	}
	return s
}

// evict is reserve's other half: the evicted slab is cleared and pooled.
func evict(s *slab) {
	s.Release()
	slabPool.Put(s)
}

// evictDirty hands an evicted slab back without clearing it, so a future
// reserve could observe the previous entry's postings.
func evictDirty(s *slab) {
	slabPool.Put(s) // want `pooled object is not reset before Put`
}

// reserveLeaky carves a slab without the escape waiver: poolhygiene cannot
// see a Put on this pool in the function and must flag the Get.
func reserveLeaky(n int) *slab {
	s := slabPool.Get().(*slab) // want `sync\.Pool\.Get without a Put on the same pool`
	s.used = n
	return s
}

// classPools recycles slabs by size class: classPools[c] holds slabs of
// 16<<c words.
var classPools [8]sync.Pool

func sizeClass(n int) int {
	if n <= 16 {
		return 0
	}
	return bits.Len(uint(n-1)) - 4
}

// reserveClass carves a slab of n's size class for the caller to publish.
//
//boss:pool-escapes published slabs live in the cache until eviction.
func reserveClass(n int) *slab {
	c := sizeClass(n)
	s, _ := classPools[c].Get().(*slab)
	if s == nil {
		s = &slab{words: make([]uint32, 0, 16<<c)}
	}
	return s
}

// evictClass clears an evicted slab and pools it by its size class.
func evictClass(s *slab) {
	s.words = s.words[:0]
	s.used = 0
	classPools[sizeClass(cap(s.words))].Put(s)
}

// evictClassDirty pools an evicted slab by class without clearing it.
func evictClassDirty(s *slab) {
	classPools[sizeClass(cap(s.words))].Put(s) // want `pooled object is not reset before Put`
}
