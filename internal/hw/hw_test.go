package hw

import (
	"math"
	"testing"

	"boss/internal/sim"
)

func approx(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol
}

func TestCoreAreaMatchesTableIII(t *testing.T) {
	if !approx(CoreArea(), 1.003, 1e-9) {
		t.Fatalf("core area = %v mm², Table III says 1.003", CoreArea())
	}
}

func TestCorePowerMatchesTableIII(t *testing.T) {
	if !approx(CorePower(), 406.64, 0.05) {
		t.Fatalf("core power = %v mW, Table III says 406.6", CorePower())
	}
}

func TestDeviceTotalsMatchTableIII(t *testing.T) {
	// Table III's rows sum to 8.23 mm² although its stated total is 8.27;
	// we reproduce the rows, so accept the row sum.
	if !approx(DeviceArea(8), 8.23, 0.05) {
		t.Fatalf("device area = %v mm², Table III rows sum to 8.23", DeviceArea(8))
	}
	if !approx(DevicePower(8), 3200, 60) {
		t.Fatalf("device power = %v mW, Table III says ~3.2 W", DevicePower(8))
	}
}

func TestDeviceScalesWithCores(t *testing.T) {
	if DeviceArea(1) >= DeviceArea(8) {
		t.Fatal("area must grow with cores")
	}
	diff := DevicePower(4) - DevicePower(2)
	if !approx(diff, 2*CorePower(), 1e-9) {
		t.Fatalf("power delta for 2 extra cores = %v, want %v", diff, 2*CorePower())
	}
}

func TestScoringModuleIsLargest(t *testing.T) {
	// The paper highlights that the scoring module dominates core area
	// (fixed-point dividers) with the top-k module second.
	var largest, second Component
	for _, c := range CoreComponents() {
		if c.AreaMM2 > largest.AreaMM2 {
			second = largest
			largest = c
		} else if c.AreaMM2 > second.AreaMM2 {
			second = c
		}
	}
	if largest.Name != "Scoring Module" {
		t.Fatalf("largest module = %s", largest.Name)
	}
	if second.Name != "Top-k Module" {
		t.Fatalf("second largest = %s", second.Name)
	}
}

func TestBOSSPowerAdvantage(t *testing.T) {
	// BOSS at 8 cores consumes ~23.3x less power than the 74.8 W CPU.
	ratio := CPUPackagePowerW / (DevicePower(8) / 1000)
	if ratio < 22 || ratio > 25 {
		t.Fatalf("power ratio = %.1f, paper says 23.3x", ratio)
	}
}

func TestEnergyArithmetic(t *testing.T) {
	// 2 W for 0.5 s = 1 J.
	if got := EnergyJ(2, 500*sim.Millisecond); !approx(got, 1, 1e-12) {
		t.Fatalf("EnergyJ = %v", got)
	}
	// Same runtime: Lucene/BOSS energy ratio equals the power ratio.
	rt := 10 * sim.Millisecond
	ratio := LuceneEnergyJ(rt) / BOSSEnergyJ(8, rt)
	if !approx(ratio, CPUPackagePowerW/(DevicePower(8)/1000), 1e-9) {
		t.Fatalf("equal-runtime energy ratio = %v", ratio)
	}
}

func TestCoreBuffersMatchSectionIVC(t *testing.T) {
	total := 0
	for _, b := range CoreBuffers() {
		total += b.Bytes
	}
	// The paper: "a BOSS core uses about 11KB of SRAM for on-chip buffers".
	if total < 11000 || total > 12500 {
		t.Fatalf("core SRAM = %d bytes, paper says about 11 KB", total)
	}
	for _, b := range CoreBuffers() {
		if b.Bytes <= 0 || b.Count <= 0 {
			t.Fatalf("degenerate buffer %+v", b)
		}
	}
}

func TestEnergyIncludesSpeedup(t *testing.T) {
	// If BOSS also finishes 8.1x faster, the energy gap multiplies: with
	// the paper's numbers this lands within reach of the headline 189x.
	luceneRT := sim.FromSeconds(8.1)
	bossRT := sim.FromSeconds(1.0)
	ratio := LuceneEnergyJ(luceneRT) / BOSSEnergyJ(8, bossRT)
	if ratio < 150 || ratio > 220 {
		t.Fatalf("combined energy ratio = %.0f, paper reports 189x", ratio)
	}
}
