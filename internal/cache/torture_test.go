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
	t.Logf("torture: %d hits, %d misses, %d evictions, %d bypasses",
		st.Hits, st.Misses, st.Evictions, st.Bypasses)
}
