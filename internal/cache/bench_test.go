package cache

import (
	"sync/atomic"
	"testing"
)

// BenchmarkGetHit is the hit arm alone: Get + Release over a resident working
// set of 4,096 blocks of one list, walked with a stride so successive lookups
// land on different entries and shards. handle is what the serving path does
// (a table resolved once, then Table.Get); key is the Key wrapper bench/'s
// traced kernel replay drives (a registry probe per lookup). Each runs on one
// goroutine and under b.RunParallel, where every goroutine walks the same
// entries from its own offset — the pin is a CAS on a word other cores are
// pinning too. Both must report 0 allocs/op.
func BenchmarkGetHit(b *testing.B) {
	const (
		blocks = 4096
		stride = 61
		list   = 3
	)
	c := New(64 << 20)
	for i := 0; i < blocks; i++ {
		c.Release(publish(c, Key{List: list, Block: uint32(i)}, 128, 0))
	}
	tab := c.Table(list, ClassPosting, blocks)
	arms := []struct {
		name string
		get  func(i int) *Entry
	}{
		{"handle", func(i int) *Entry { return tab.Get(i) }},
		{"key", func(i int) *Entry { return c.Get(Key{List: list, Block: uint32(i)}) }},
	}
	for _, arm := range arms {
		b.Run(arm.name+"/serial", func(b *testing.B) {
			b.ReportAllocs()
			for i, at := 0, 0; i < b.N; i, at = i+1, (at+stride)%blocks {
				e := arm.get(at)
				if e == nil {
					b.Fatal("unexpected miss")
				}
				c.Release(e)
			}
		})
		b.Run(arm.name+"/parallel", func(b *testing.B) {
			b.ReportAllocs()
			var starts atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				at := int(starts.Add(1)*997) % blocks
				for ; pb.Next(); at = (at + stride) % blocks {
					e := arm.get(at)
					if e == nil {
						b.Error("unexpected miss")
						return
					}
					c.Release(e)
				}
			})
		})
	}
}

// BenchmarkPublish is a miss's insert alone — Reserve + Table.Publish +
// Release of a 128-posting block on one shard holding 1,024 — in the three
// ways it can go. fits: the cache has room, so the block is admitted without
// an eviction or a sketch (what bench/'s cache.publish_ns times). evicts: the
// cache is full of cold entries and each block is marked and rated hot, so it
// is admitted and evicts one. declines: the cache is full of hot entries and
// each block is marked and rated cold, so the sketch declines it. Every
// round of operations starts from a cache set up with the timer stopped; a
// round is short enough that no publish meets an entry the round admitted.
// All three must report 0 allocs/op.
func BenchmarkPublish(b *testing.B) {
	const (
		n       = 128
		entries = 1024
		list    = 5
	)
	one := int64(8*n) + entryOverheadBytes
	var c *Cache
	var tab *Table
	// fill starts a round: the previous cache's entries go back to the slab
	// pools, and a new one, with the given budget, holds entries blocks
	// published below the budget with their reference bits cleared.
	fill := func(budget int64) {
		if c != nil {
			s := &c.shards[0]
			for len(s.ring) > 0 {
				s.hand = 0
				s.evict(s.ring[0])
			}
		}
		c = NewSharded(budget, 1)
		tab = c.Table(list, ClassPosting, 3*entries)
		for i := range entries {
			e := c.Reserve(n)
			c.Release(tab.Publish(i, e, e.DocsBuf(n)[:n], e.TfsBuf(n)[:n], 0))
			(*tab.slots.Load())[i].Load().used.Store(false)
		}
	}
	// rate marks the slots of a round's candidate blocks, from entries up,
	// and gives the shard a sketch that counts each resident block resident
	// times and each candidate candidate times.
	rate := func(round, resident, candidate int) {
		sk := newSketch(entries)
		c.shards[0].freq.Store(sk)
		for i := range entries + round {
			hot := resident
			if i >= entries {
				hot = candidate
				(*tab.slots.Load())[i].Store(&missedOnce)
			}
			for range hot {
				sk.add(keyHash(Key{List: list, Block: uint32(i)}))
			}
		}
	}
	arms := []struct {
		name  string
		round int
		setup func(round int)
	}{
		{"fits", entries, func(int) { fill(3 * entries * one) }},
		{"evicts", entries / 2, func(round int) { fill(entries * one); rate(round, 0, counterMax) }},
		{"declines", 2 * entries, func(round int) { fill(entries * one); rate(round, counterMax, 0) }},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			var evictions, bypasses int64
			for i := 0; i < b.N; i++ {
				if i%arm.round == 0 {
					b.StopTimer()
					if c != nil {
						st := c.Stats()
						evictions, bypasses = evictions+st.Evictions, bypasses+st.Bypasses
					}
					arm.setup(arm.round)
					b.StartTimer()
				}
				e := c.Reserve(n)
				c.Release(tab.Publish(entries+i%arm.round, e, e.DocsBuf(n)[:n], e.TfsBuf(n)[:n], 0))
			}
			b.StopTimer()
			st := c.Stats()
			b.ReportMetric(float64(evictions+st.Evictions)/float64(b.N), "evictions/op")
			b.ReportMetric(float64(bypasses+st.Bypasses)/float64(b.N), "bypasses/op")
			c = nil
		})
	}
}
