package cache_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"boss/internal/cache"
)

// TestTorture hammers one cache from concurrent readers and publishers under
// a budget of 8 entries for 64 keys drawn uniformly, so that every publish
// would evict: most are declined, the rest evict. Run with -race. Every
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
// wrapper, regrowing the table under three readers that chase it — through
// the wrapper and through a handle resolved before the first publish. It then
// serves the new block as the serving path would, looking it up and
// publishing it on a miss until it hits (at most 64 times): each miss rates
// it up in the sketch until it out-rates a victim, so a budget of four
// entries keeps evicting what the readers look for. A reader that
// loaded the slot array just before it was replaced reads a slot nobody
// clears any more; the key check is what makes that a miss.
func TestRegrowTorture(t *testing.T) {
	const (
		readers   = 3
		blocks    = 1000
		blockLen  = 128
		list      = 9
		budgetOne = int64(2*blockLen)*4 + 128
	)
	c := cache.NewSharded(4*budgetOne, 1)
	tab := c.Table(list, cache.ClassPosting, 0)
	publish := func(b int) *cache.Entry {
		e, docs, tfs := decodeBlock(c, blockLen, uint32(b), 1)
		return c.Publish(cache.Key{List: list, Block: uint32(b)}, e, docs, tfs, 0)
	}
	check := func(e *cache.Entry, b int) {
		if docs := e.Docs(); len(docs) != blockLen || docs[0] != uint32(b) || docs[blockLen-1] != uint32(b+blockLen-1) {
			t.Errorf("block %d: another block's data", b)
		}
	}

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
				check(e, b)
				c.Release(e)
			}
		}(g)
	}
	for b := 0; b < blocks; b++ {
		c.Release(publish(b))
		published.Store(int64(b + 1))
		for range 64 {
			e := tab.Get(b)
			if e != nil {
				hits.Add(1)
				check(e, b)
				c.Release(e)
				break
			}
			e = publish(b)
			check(e, b)
			c.Release(e)
		}
	}
	wg.Wait()

	st := c.Stats()
	if st.PinnedEntries != 0 || st.ResidentBytes > st.BudgetBytes {
		t.Fatalf("stats = %+v", st)
	}
	if st.Hits != hits.Load() {
		t.Fatalf("stats count %d hits, the readers saw %d", st.Hits, hits.Load())
	}
	if st.Evictions < blocks/4 {
		t.Fatalf("%d evictions for %d blocks: too little churn to exercise anything", st.Evictions, blocks)
	}
	t.Logf("regrow torture: %d hits, %d misses, %d evictions", st.Hits, st.Misses, st.Evictions)
}

// TestSlabClassTorture is TestTableTorture over blocks of mixed sizes and
// both classes, so that entries recycle through several kinds and size
// classes of slab pool at once: a posting table and a document table per
// list, each block with a size of its own — from one posting to more than a
// default block's worth, several sizes to a class — published by two
// publishers and looked up by four readers under a budget of three full
// blocks. Every hit's contents are checked against the pattern and the
// size of the block asked for, so a slab handed to a block of another size
// or class while a reader holds it shows as another block's data.
func TestSlabClassTorture(t *testing.T) {
	const (
		readers    = 4
		publishers = 2
		lists      = 2
		blocks     = 4 // per table
		opsPerG    = 10000
	)
	sizes := [lists][blocks]int{{1, 9, 100, 200}, {5, 16, 65, 128}}
	c := cache.NewSharded(3*(8*128+128), 1)
	var tabs [lists][2]*cache.Table
	for l := range tabs {
		tabs[l] = [2]*cache.Table{c.Table(uint64(l+1), cache.ClassPosting, blocks), c.Table(uint64(l+1), cache.ClassDoc, blocks)}
	}
	// A document block holds 8 bytes a posting plus 3.
	size := func(l int, class uint8, b int) int {
		if class == cache.ClassDoc {
			return 8*sizes[l][b] + 3
		}
		return sizes[l][b]
	}
	pattern := func(l int, class uint8, b, i int) uint32 { return uint32(l*100000 + int(class)*10000 + b*1000 + i) }
	check := func(e *cache.Entry, l int, class uint8, b int) {
		n := size(l, class, b)
		if class == cache.ClassDoc {
			data := e.Data()
			if len(data) != n || e.Docs() != nil {
				t.Errorf("list %d doc block %d: %d bytes, %d docs", l, b, len(data), len(e.Docs()))
				return
			}
			for i := range data {
				if data[i] != byte(pattern(l, class, b, i)) {
					t.Errorf("list %d doc block %d: byte %d = %d: another block's data", l, b, i, data[i])
					return
				}
			}
			return
		}
		docs, tfs := e.Docs(), e.Tfs()
		if len(docs) != n || len(tfs) != n || e.Data() != nil {
			t.Errorf("list %d block %d: %d docs / %d tfs / %d bytes", l, b, len(docs), len(tfs), len(e.Data()))
			return
		}
		for i := range docs {
			if docs[i] != pattern(l, class, b, i) || tfs[i] != uint32(l*blocks+b) {
				t.Errorf("list %d block %d: doc[%d] = %d, tf = %d: another block's data", l, b, i, docs[i], tfs[i])
				return
			}
		}
	}

	var hits, misses atomic.Int64
	var wg sync.WaitGroup
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
				l, class, b := int(rng>>33)%lists, uint8(rng>>40)%2, int(rng>>45)%blocks
				tab := tabs[l][class]
				if g < readers {
					if e := tab.Get(b); e != nil {
						hits.Add(1)
						check(e, l, class, b)
						c.Release(e)
					} else {
						misses.Add(1)
					}
					continue
				}
				n := size(l, class, b)
				var got *cache.Entry
				if class == cache.ClassDoc {
					e := c.ReserveBytes(n)
					data := e.ByteBuf(n)
					for i := range data {
						data[i] = byte(pattern(l, class, b, i))
					}
					got = tab.PublishBytes(b, e, data)
				} else {
					e := c.Reserve(n)
					docs, tfs := e.DocsBuf(n), e.TfsBuf(n)
					for i := 0; i < n; i++ {
						docs = append(docs, pattern(l, class, b, i))
						tfs = append(tfs, uint32(l*blocks+b))
					}
					got = tab.Publish(b, e, docs, tfs, 0)
				}
				check(got, l, class, b)
				c.Release(got)
				if op == 0 {
					published.Done()
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	if st.PinnedEntries != 0 || st.ResidentBytes > st.BudgetBytes {
		t.Fatalf("stats = %+v", st)
	}
	if st.Hits != hits.Load() || st.Misses != misses.Load() {
		t.Fatalf("stats count %d hits / %d misses, the readers saw %d / %d",
			st.Hits, st.Misses, hits.Load(), misses.Load())
	}
	if st.Evictions == 0 || st.PostingHits == 0 || st.DocHits == 0 {
		t.Fatalf("stats = %+v: no churn or a class never hit, so the test exercises nothing", st)
	}
	t.Logf("slab class torture: %d hits (%d doc), %d misses, %d evictions, %d bypasses",
		st.Hits, st.DocHits, st.Misses, st.Evictions, st.Bypasses)
}

// TestAdmissionTorture races the admission sketch's two writers on one full
// shard: hits that set a reference bit the hand cleared count into the
// sketch from the lock-free hit arm, while publishers count their misses,
// age the sketch, run the hand (clearing the bits the hits set) and compare
// estimates under the shard mutex. Four goroutines look blocks up with a
// skewed popularity and publish what they miss, so some blocks are hot,
// most publishes are declined, and the sketch (32 words for 8 entries)
// ages every 1,280 misses. Every hit's and publish's contents are checked against the key
// asked for, and the counters must add up: exact lookups, and rejections a
// subset of bypasses.
func TestAdmissionTorture(t *testing.T) {
	const (
		workers  = 4
		lists    = 2
		blocks   = 32 // per list
		blockLen = 128
		opsPerG  = 10000
	)
	c := cache.NewSharded(8*(int64(2*blockLen)*4+128), 1) // room for 8 of 64 blocks
	var tabs [lists]*cache.Table
	for l := range tabs {
		tabs[l] = c.Table(uint64(l+1), cache.ClassPosting, blocks)
	}
	pattern := func(l, b, i int) uint32 { return uint32(l*100000 + b*1000 + i) }
	check := func(e *cache.Entry, l, b int) {
		docs := e.Docs()
		if len(docs) != blockLen || docs[0] != pattern(l, b, 0) || docs[blockLen-1] != pattern(l, b, blockLen-1) {
			t.Errorf("list %d block %d: another block's data", l, b)
		}
	}
	var hits, misses atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := uint64(g)*2654435761 + 1
			for op := 0; op < opsPerG; op++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				// The smaller of two draws: block 0 is drawn 63 times as often
				// as block 31.
				l, b := int(rng>>33)%lists, min(int(rng>>40)%blocks, int(rng>>50)%blocks)
				if e := tabs[l].Get(b); e != nil {
					hits.Add(1)
					check(e, l, b)
					c.Release(e)
					continue
				}
				misses.Add(1)
				e, docs, tfs := decodeBlock(c, blockLen, pattern(l, b, 0), 1)
				got := tabs[l].Publish(b, e, docs, tfs, 0)
				check(got, l, b)
				c.Release(got)
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	if st.PinnedEntries != 0 || st.ResidentBytes > st.BudgetBytes {
		t.Fatalf("stats = %+v", st)
	}
	if st.Hits != hits.Load() || st.Misses != misses.Load() {
		t.Fatalf("stats count %d hits / %d misses, the workers saw %d / %d", st.Hits, st.Misses, hits.Load(), misses.Load())
	}
	if st.Rejected > st.Bypasses {
		t.Fatalf("%d rejections but %d bypasses: rejections are bypasses", st.Rejected, st.Bypasses)
	}
	if st.Evictions == 0 || st.Rejected == 0 || st.Hits == 0 {
		t.Fatalf("stats = %+v: no evictions, rejections or hits, so the test exercises nothing", st)
	}
	t.Logf("admission torture: %d hits, %d misses, %d evictions, %d bypasses (%d rejected)",
		st.Hits, st.Misses, st.Evictions, st.Bypasses, st.Rejected)
}
