package mem

import (
	"math"
	"testing"
)

func TestFaultPlanEmpty(t *testing.T) {
	var p *FaultPlan
	if !p.Empty() {
		t.Fatal("nil plan should be empty")
	}
	if p.InjectorFor(0) != nil {
		t.Fatal("nil plan must yield nil injector")
	}
	zero := &FaultPlan{Seed: 42}
	if !zero.Empty() || zero.InjectorFor(3) != nil {
		t.Fatal("zero-rate plan must be empty and yield nil injector")
	}
	live := &FaultPlan{Seed: 42, TransientRate: 0.01}
	if live.Empty() || live.InjectorFor(0) == nil {
		t.Fatal("plan with a rate must yield an injector")
	}
}

func TestBlockFaultDeterministic(t *testing.T) {
	p := &FaultPlan{Seed: 7, TransientRate: 0.05, UncorrectableRate: 0.01}
	a := p.InjectorFor(2)
	b := p.InjectorFor(2)
	for key := uint64(0); key < 64; key++ {
		for blk := uint32(0); blk < 16; blk++ {
			for att := uint32(0); att < 4; att++ {
				if got, want := a.BlockFault(key, blk, att), b.BlockFault(key, blk, att); got != want {
					t.Fatalf("nondeterministic decision key=%d blk=%d att=%d: %v vs %v", key, blk, att, got, want)
				}
			}
		}
	}
	other := p.InjectorFor(3)
	same := 0
	total := 0
	for key := uint64(0); key < 256; key++ {
		total++
		if a.BlockFault(key, 0, 0) == other.BlockFault(key, 0, 0) &&
			a.BlockFault(key, 0, 0) != FaultNone {
			same++
		}
	}
	if same == total {
		t.Fatal("different devices should not share fault patterns")
	}
}

func TestBlockFaultRates(t *testing.T) {
	p := &FaultPlan{Seed: 99, TransientRate: 0.10, UncorrectableRate: 0.02}
	in := p.InjectorFor(0)
	const n = 200000
	var transient, uncorrectable int
	for i := 0; i < n; i++ {
		switch in.BlockFault(uint64(i), uint32(i%7), 0) {
		case FaultTransient:
			transient++
		case FaultUncorrectable:
			uncorrectable++
		}
	}
	if got := float64(transient) / n; math.Abs(got-0.10) > 0.01 {
		t.Errorf("transient rate %.4f, want ~0.10", got)
	}
	if got := float64(uncorrectable) / n; math.Abs(got-0.02) > 0.005 {
		t.Errorf("uncorrectable rate %.4f, want ~0.02", got)
	}
}

// A block the plan declares uncorrectable must stay uncorrectable on
// every re-read: retrying media errors must not clear them.
func TestUncorrectablePersistsAcrossAttempts(t *testing.T) {
	p := &FaultPlan{Seed: 5, UncorrectableRate: 0.05}
	in := p.InjectorFor(1)
	checked := 0
	for key := uint64(0); key < 5000 && checked < 25; key++ {
		if in.BlockFault(key, 3, 0) != FaultUncorrectable {
			continue
		}
		checked++
		for att := uint32(1); att < 8; att++ {
			if got := in.BlockFault(key, 3, att); got != FaultUncorrectable {
				t.Fatalf("key %d attempt %d: uncorrectable block returned %v", key, att, got)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no uncorrectable blocks sampled")
	}
}

// Transient faults must usually clear on retry (attempt-salted draw).
func TestTransientClearsOnRetry(t *testing.T) {
	p := &FaultPlan{Seed: 11, TransientRate: 0.05}
	in := p.InjectorFor(0)
	cleared, hit := 0, 0
	for key := uint64(0); key < 20000; key++ {
		if in.BlockFault(key, 0, 0) != FaultTransient {
			continue
		}
		hit++
		for att := uint32(1); att < 4; att++ {
			if in.BlockFault(key, 0, att) == FaultNone {
				cleared++
				break
			}
		}
	}
	if hit == 0 {
		t.Fatal("no transient faults sampled")
	}
	if float64(cleared)/float64(hit) < 0.8 {
		t.Errorf("only %d/%d transient faults cleared within 3 retries", cleared, hit)
	}
}

func TestDeadDevice(t *testing.T) {
	p := &FaultPlan{Seed: 1, DeadDevices: []int{2}}
	if in := p.InjectorFor(2); !in.Dead() || in.BlockFault(1, 1, 0) != FaultDeviceDown {
		t.Fatal("device 2 should be dead")
	}
	if in := p.InjectorFor(0); in.Dead() {
		t.Fatal("device 0 should be alive")
	}
}

func TestStableKeyDeterministic(t *testing.T) {
	if StableKey("retrieval") != StableKey("retrieval") {
		t.Fatal("StableKey must be deterministic")
	}
	if StableKey("a") == StableKey("b") {
		t.Fatal("distinct terms should hash apart")
	}
}
