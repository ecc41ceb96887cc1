package cache_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"boss/internal/cache"
)

// TestTorture hammers one cache from concurrent readers and publishers under
// a budget tight enough to force constant eviction. Run with -race. Every
// pinned entry's contents are validated against a key-derived sentinel, so an
// eviction recycling a pinned slab shows up as corrupted data even when the
// race detector is off.
func TestTorture(t *testing.T) {
	const (
		readers   = 4
		keys      = 64
		blockLen  = 128
		opsPerG   = 3000
		budgetOne = int64(2*blockLen)*4 + 128 // entry charge incl. overhead
	)
	c := cache.NewSharded(budgetOne*8, 2) // hold ~8 of 64 keys: heavy churn

	keyOf := func(i int) cache.Key {
		return cache.Key{List: uint64(i % 16), Block: uint32(i / 16)}
	}
	check := func(e *cache.Entry, k cache.Key) {
		docs, tfs := e.Docs(), e.Tfs()
		if len(docs) != blockLen || len(tfs) != blockLen {
			t.Errorf("key %v: %d docs / %d tfs", k, len(docs), len(tfs))
			return
		}
		for i := range docs {
			if want := uint32(k.List)*10000 + k.Block*100 + uint32(i); docs[i] != want {
				t.Errorf("key %v doc[%d] = %d, want %d", k, i, docs[i], want)
				return
			}
		}
	}

	var hits, misses atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := seed*2654435761 + 1
			for op := 0; op < opsPerG; op++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				k := keyOf(int(rng>>33) % keys)
				if e := c.Get(k); e != nil {
					hits.Add(1)
					check(e, k)
					c.Release(e)
					continue
				}
				misses.Add(1)
				// Miss: decode (simulated) into a reserved slab and publish.
				e := c.Reserve(blockLen)
				docs, tfs := e.DocsBuf(blockLen), e.TfsBuf(blockLen)
				for i := 0; i < blockLen; i++ {
					docs = append(docs, uint32(k.List)*10000+k.Block*100+uint32(i))
					tfs = append(tfs, uint32(i))
				}
				got := c.Publish(k, e, docs, tfs, int64(k.List))
				check(got, k)
				c.Release(got)
			}
		}(uint64(g))
	}
	wg.Wait()

	st := c.Stats()
	if st.ResidentBytes > st.BudgetBytes {
		t.Fatalf("resident %d exceeds budget %d", st.ResidentBytes, st.BudgetBytes)
	}
	if st.PinnedEntries != 0 {
		t.Fatalf("%d entries still pinned after all releases", st.PinnedEntries)
	}
	if hits.Load()+misses.Load() != readers*opsPerG {
		t.Fatalf("lost ops: %d hits + %d misses != %d", hits.Load(), misses.Load(), readers*opsPerG)
	}
	// Lookups take no lock; their counters must still be exact.
	if st.Hits != hits.Load() || st.Misses != misses.Load() {
		t.Fatalf("stats count %d hits / %d misses, the readers saw %d / %d",
			st.Hits, st.Misses, hits.Load(), misses.Load())
	}
	t.Logf("torture: %d hits, %d misses, %d evictions, %d bypasses",
		st.Hits, st.Misses, st.Evictions, st.Bypasses)
}

// decodeBlock plays a publisher's decode: a reserved entry whose slab holds n
// docIDs first, first+1, … and n copies of tf.
func decodeBlock(c *cache.Cache, n int, first, tf uint32) (e *cache.Entry, docs, tfs []uint32) {
	e = c.Reserve(n)
	docs, tfs = e.DocsBuf(n), e.TfsBuf(n)
	for i := 0; i < n; i++ {
		docs = append(docs, first+uint32(i))
		tfs = append(tfs, tf)
	}
	return e, docs, tfs
}

// TestTableTorture aims at the one place the lock-free hit arm can break: a
// reader holding a pointer to an entry that is evicted, recycled and
// republished under another key while the reader is between its slot load and
// its pin. One shard with room for two entries and eight keys over two tables
// (handles resolved up front) keeps every entry recycling through the slab
// pool from key to key; four readers only look up, two publishers only
// publish. Every hit's contents are checked against the pattern derived from
// the key that was asked for, so a stale pin wrongly accepted shows as another
// key's data even without -race.
func TestTableTorture(t *testing.T) {
	const (
		readers    = 4
		publishers = 2
		blocks     = 4 // per table
		blockLen   = 128
		opsPerG    = 20000
		budgetOne  = int64(2*blockLen)*4 + 128
	)
	c := cache.NewSharded(2*budgetOne, 1)
	tabs := [2]*cache.Table{c.Table(1, cache.ClassPosting, blocks), c.Table(2, cache.ClassPosting, blocks)}

	pattern := func(list, b, i int) uint32 { return uint32(list*10000 + b*100 + i) }
	check := func(e *cache.Entry, list, b int) {
		docs, tfs := e.Docs(), e.Tfs()
		if len(docs) != blockLen || len(tfs) != blockLen {
			t.Errorf("list %d block %d: %d docs / %d tfs", list, b, len(docs), len(tfs))
			return
		}
		for i := range docs {
			if docs[i] != pattern(list, b, i) || tfs[i] != uint32(list) {
				t.Errorf("list %d block %d: doc[%d] = %d, tf = %d: another block's data", list, b, i, docs[i], tfs[i])
				return
			}
		}
	}

	var hits, misses atomic.Int64
	var wg sync.WaitGroup
	// Readers start once every publisher has published a block, so they
	// cannot all finish before the cache holds anything to hit.
	var published sync.WaitGroup
	published.Add(publishers)
	for g := 0; g < readers+publishers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g < readers {
				published.Wait()
			}
			rng := uint64(g)*2654435761 + 1
			for op := 0; op < opsPerG; op++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				ti, b := int(rng>>33)%2, int(rng>>40)%blocks
				list, tab := ti+1, tabs[ti]
				if g < readers {
					if e := tab.Get(b); e != nil {
						hits.Add(1)
						check(e, list, b)
						c.Release(e)
					} else {
						misses.Add(1)
					}
					continue
				}
				e, docs, tfs := decodeBlock(c, blockLen, pattern(list, b, 0), uint32(list))
				got := tab.Publish(b, e, docs, tfs, 0)
				check(got, list, b)
				c.Release(got)
				if op == 0 {
					published.Done()
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	if st.PinnedEntries != 0 {
		t.Fatalf("%d entries still pinned after all releases", st.PinnedEntries)
	}
	if st.ResidentBytes > st.BudgetBytes {
		t.Fatalf("resident %d exceeds budget %d", st.ResidentBytes, st.BudgetBytes)
	}
	if st.Hits != hits.Load() || st.Misses != misses.Load() {
		t.Fatalf("stats count %d hits / %d misses, the readers saw %d / %d",
			st.Hits, st.Misses, hits.Load(), misses.Load())
	}
	if st.Evictions == 0 || hits.Load() == 0 {
		t.Fatalf("no churn (%d evictions) or no hits (%d): the test exercises nothing", st.Evictions, hits.Load())
	}
	t.Logf("table torture: %d hits, %d misses, %d evictions, %d bypasses",
		st.Hits, st.Misses, st.Evictions, st.Bypasses)
}

// TestRegrowTorture is TestTableTorture for a table nobody declared a size
// for: one publisher extends a list a block at a time through the Key
// wrapper (each block twice, the second publish admitting it), regrowing the
// table under three readers that chase it — through the wrapper and through
// a handle resolved before the first publish — while a budget of four
// entries keeps evicting what they look for. A reader that
// loaded the slot array just before it was replaced reads a slot nobody
// clears any more; the key check is what makes that a miss.
func TestRegrowTorture(t *testing.T) {
	const (
		readers   = 3
		blocks    = 3000
		blockLen  = 128
		list      = 9
		budgetOne = int64(2*blockLen)*4 + 128
	)
	c := cache.NewSharded(4*budgetOne, 1)
	tab := c.Table(list, cache.ClassPosting, 0)

	var published atomic.Int64 // blocks [0, published) have been published
	var hits atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := uint64(g)*2654435761 + 1
			for {
				n := published.Load()
				if n == blocks {
					return
				}
				rng = rng*6364136223846793005 + 1442695040888963407
				b := int(n) - 1 - int(rng>>33)%8 // the newest eight, with room for four
				if b < 0 {
					continue
				}
				var e *cache.Entry
				if g == 0 {
					e = tab.Get(b)
				} else {
					e = c.Get(cache.Key{List: list, Block: uint32(b)})
				}
				if e == nil {
					continue
				}
				hits.Add(1)
				if docs := e.Docs(); len(docs) != blockLen || docs[0] != uint32(b) || docs[blockLen-1] != uint32(b+blockLen-1) {
					t.Errorf("block %d: another block's data", b)
				}
				c.Release(e)
			}
		}(g)
	}
	for b := 0; b < blocks; b++ {
		// Twice: once the cache is full a block is admitted on its second
		// miss, and that admission is what evicts.
		for range 2 {
			e, docs, tfs := decodeBlock(c, blockLen, uint32(b), 1)
			c.Release(c.Publish(cache.Key{List: list, Block: uint32(b)}, e, docs, tfs, 0))
		}
		published.Store(int64(b + 1))
	}
	wg.Wait()

	st := c.Stats()
	if st.PinnedEntries != 0 || st.ResidentBytes > st.BudgetBytes {
		t.Fatalf("stats = %+v", st)
	}
	if st.Hits != hits.Load() {
		t.Fatalf("stats count %d hits, the readers saw %d", st.Hits, hits.Load())
	}
	t.Logf("regrow torture: %d hits, %d misses, %d evictions", st.Hits, st.Misses, st.Evictions)
}
