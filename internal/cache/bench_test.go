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
