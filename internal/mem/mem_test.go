package mem

import (
	"math"
	"testing"

	"boss/internal/sim"
)

func TestSequentialReadBandwidth(t *testing.T) {
	n := NewNode(SCM())
	// Read 1 MB sequentially from one channel's address range.
	size := 1 << 20
	done := n.Read(0, 0, size, Sequential)
	// Per-channel sequential bandwidth is 25.6/4 = 6.4 GB/s.
	wantTransfer := sim.FromSeconds(float64(size) / (6.4 * 1e9))
	want := wantTransfer + SCM().ReadLatency
	if done != want {
		t.Fatalf("seq read completion = %d, want %d", done, want)
	}
}

func TestRandomReadSlowerThanSequential(t *testing.T) {
	a := NewNode(SCM())
	b := NewNode(SCM())
	size := 1 << 16
	seqDone := a.Read(0, 0, size, Sequential)
	randDone := b.Read(0, 0, size, Random)
	if randDone <= seqDone {
		t.Fatalf("random read (%d) should be slower than sequential (%d)", randDone, seqDone)
	}
	// Roughly the bandwidth ratio 25.6/6.6.
	ratio := float64(randDone-SCM().ReadLatency) / float64(seqDone-SCM().ReadLatency)
	if ratio < 3 || ratio > 5 {
		t.Fatalf("random/seq time ratio %.2f, expected near 25.6/6.6", ratio)
	}
}

func TestRandomReadRoundsToGranularity(t *testing.T) {
	n := NewNode(SCM())
	// A 4-byte random read still occupies the channel for a full 256 B line.
	done4 := n.Read(0, 0, 4, Random)
	m := NewNode(SCM())
	done256 := m.Read(0, 0, 256, Random)
	if done4 != done256 {
		t.Fatalf("4B random read (%d) should cost the same as 256B (%d)", done4, done256)
	}
	// But accounting records the requested 4 bytes.
	if got := n.TotalBytes(); got != 4 {
		t.Fatalf("accounted %d bytes", got)
	}
}

func TestWritesAreSlowestOnSCM(t *testing.T) {
	n := NewNode(SCM())
	size := 1 << 16
	rEnd := n.Read(0, 0, size, Sequential)
	m := NewNode(SCM())
	wEnd := m.Write(0, 0, size)
	rTime := rEnd - SCM().ReadLatency
	wTime := wEnd - SCM().WriteLatency
	if float64(wTime)/float64(rTime) < 25.6/9.2*0.9 {
		t.Fatalf("write/read time ratio %.1f too small for SCM asymmetry", float64(wTime)/float64(rTime))
	}
}

func TestDRAMFasterThanSCM(t *testing.T) {
	scm := NewNode(SCM())
	dram := NewNode(DRAM())
	size := 1 << 20
	if dram.Read(0, 0, size, Sequential) >= scm.Read(0, 0, size, Sequential) {
		t.Fatal("DRAM sequential read should beat SCM")
	}
	scm.Reset()
	dram.Reset()
	if dram.Read(0, 0, size, Random) >= scm.Read(0, 0, size, Random) {
		t.Fatal("DRAM random read should beat SCM")
	}
}

func TestChannelStriping(t *testing.T) {
	n := NewNode(SCM())
	size := 64 << 10
	// Two concurrent reads to different stripes should overlap (different
	// channels), so the max completion is about one transfer, not two.
	d1 := n.Read(0, 0, size, Sequential)
	d2 := n.Read(0, stripeBytes, size, Sequential)
	if d2 != d1 {
		t.Fatalf("reads on different channels should complete together: %d vs %d", d1, d2)
	}
	// Same stripe: the second queues behind the first.
	m := NewNode(SCM())
	e1 := m.Read(0, 0, size, Sequential)
	e2 := m.Read(0, 0, size, Sequential)
	if e2 <= e1 {
		t.Fatal("reads on the same channel must serialize")
	}
}

func TestQueueingUnderContention(t *testing.T) {
	n := NewNode(SCM())
	size := 1 << 20
	// 8 cores all streaming: total time should scale with total bytes over
	// node bandwidth.
	var last sim.Time
	for i := 0; i < 8; i++ {
		addr := uint64(i) * stripeBytes
		done := n.Read(0, addr, size, Sequential)
		if done > last {
			last = done
		}
	}
	// 8 MB over 25.6 GB/s = ~312 µs (8 streams over 4 channels = 2 per
	// channel serialized).
	totalSecs := sim.Seconds(last)
	want := 8 * float64(size) / (25.6 * 1e9)
	if math.Abs(totalSecs-want)/want > 0.2 {
		t.Fatalf("contended completion %.3gs, want about %.3gs", totalSecs, want)
	}
}

func TestNodeAccounting(t *testing.T) {
	n := NewNode(SCM())
	n.Read(0, 0, 1000, Sequential)
	n.Read(0, 0, 500, Random)
	n.Write(0, 0, 200)
	if got := n.TotalBytes(); got != 1700 {
		t.Fatalf("total bytes = %d", got)
	}
	if n.Bandwidth(sim.Second) != 1700.0/1e9 {
		t.Fatalf("bandwidth = %v", n.Bandwidth(sim.Second))
	}
	n.Reset()
	if n.TotalBytes() != 0 || n.BusyTime() != 0 {
		t.Fatal("reset failed")
	}
}

func TestZeroSizeAccessesAreFree(t *testing.T) {
	n := NewNode(SCM())
	if n.Read(100, 0, 0, Sequential) != 100 {
		t.Fatal("zero-size read should be instantaneous")
	}
	if n.Write(100, 0, 0) != 100 {
		t.Fatal("zero-size write should be instantaneous")
	}
	if n.TotalBytes() != 0 {
		t.Fatal("zero-size access should not be accounted")
	}
}

func TestLinkTransfer(t *testing.T) {
	l := NewLink(64)
	size := 64_000_000 // 64 MB over 64 GB/s = 1 ms
	done := l.Transfer(0, size)
	want := sim.Millisecond
	if math.Abs(float64(done-want))/float64(want) > 0.01 {
		t.Fatalf("link transfer = %d, want ~%d", done, want)
	}
	// Transfers serialize on the shared link.
	d2 := l.Transfer(0, size)
	if d2 <= done {
		t.Fatal("link transfers must serialize")
	}
	if u := l.Utilization(d2); u < 0.99 {
		t.Fatalf("fully queued link utilization = %v", u)
	}
	l.Reset()
	if l.Utilization(d2) != 0 {
		t.Fatal("link reset failed")
	}
}

func TestTLBCoversNodeWithHugePages(t *testing.T) {
	tlb := NewTLB(DefaultTLBEntries, DefaultPageBits)
	// Touch every 2 GB page of a 2 TB node: 1024 pages, all fit.
	for p := uint64(0); p < 1024; p++ {
		tlb.Lookup(p << DefaultPageBits)
	}
	if tlb.Misses() != 1024 {
		t.Fatalf("cold misses = %d, want 1024", tlb.Misses())
	}
	// Second pass: all hits.
	for p := uint64(0); p < 1024; p++ {
		if d := tlb.Lookup(p << DefaultPageBits); d != 0 {
			t.Fatal("warm lookup should be free")
		}
	}
	if tlb.Hits() != 1024 {
		t.Fatalf("hits = %d", tlb.Hits())
	}
}

func TestTLBEviction(t *testing.T) {
	tlb := NewTLB(2, DefaultPageBits)
	tlb.Lookup(0 << DefaultPageBits)
	tlb.Lookup(1 << DefaultPageBits)
	tlb.Lookup(2 << DefaultPageBits) // evicts something
	if tlb.Misses() != 3 {
		t.Fatalf("misses = %d", tlb.Misses())
	}
}

func TestMAIChargesTLBAndMemory(t *testing.T) {
	node := NewNode(SCM())
	mai := NewMAI(node)
	// First access: cold TLB miss penalty applies.
	done := mai.Read(0, 0, 256, Sequential)
	wantMin := TLBMissPenalty + SCM().ReadLatency
	if done < wantMin {
		t.Fatalf("cold MAI read = %d, want >= %d", done, wantMin)
	}
	// Warm access to the same page: no TLB penalty.
	warm := mai.Read(done, 0, 256, Sequential)
	if warm-done >= wantMin {
		t.Fatal("warm MAI read should skip the TLB penalty")
	}
	if mai.TLB().Hits() != 1 || mai.TLB().Misses() != 1 {
		t.Fatalf("tlb hits=%d misses=%d", mai.TLB().Hits(), mai.TLB().Misses())
	}
	// Writes also flow through the MAI.
	mai.Write(warm, 0, 64)
	if got := node.TotalBytes(); got != 256+256+64 {
		t.Fatalf("MAI traffic accounted %d bytes, want 576", got)
	}
}

func TestConfigPresets(t *testing.T) {
	for _, cfg := range []Config{SCM(), DRAM(), HostSCM(), HostDRAM()} {
		if cfg.Channels <= 0 || cfg.SeqReadGBs <= 0 || cfg.WriteGBs <= 0 {
			t.Errorf("config %s has zero fields: %+v", cfg.Name, cfg)
		}
		if cfg.RandReadGBs > cfg.SeqReadGBs {
			t.Errorf("config %s: random faster than sequential", cfg.Name)
		}
	}
	if SCM().SeqReadGBs != 25.6 || SCM().RandReadGBs != 6.6 || SCM().WriteGBs != 9.2 {
		t.Error("SCM preset does not match Table I")
	}
	if DRAM().SeqReadGBs != 85.2 {
		t.Error("DRAM preset does not match Figure 16 text")
	}
	if HostDRAM().SeqReadGBs != 140.76 {
		t.Error("host DRAM preset does not match Table I")
	}
}

func TestPatternString(t *testing.T) {
	if Sequential.String() != "seq" || Random.String() != "rand" {
		t.Fatal("pattern strings wrong")
	}
}

func TestCategories(t *testing.T) {
	cats := Categories()
	if len(cats) != 5 || cats[0] != CatLoadList || cats[4] != CatStoreResult {
		t.Fatalf("categories = %v", cats)
	}
}
