// Package hw reproduces the paper's area/power/energy analysis (Table III
// and Figure 17). The per-module area and power figures come from the
// paper's Synopsys DC synthesis at TSMC 40 nm; energy is power multiplied by
// simulated runtime, exactly the arithmetic the paper applies.
package hw

import "boss/internal/sim"

// Component is one row of Table III.
type Component struct {
	Name    string
	Count   int
	AreaMM2 float64 // total over Count instances
	PowerMW float64 // total over Count instances
}

// CoreComponents returns the BOSS-core breakdown of Table III. Area and
// power are totals over the listed instance counts; they sum to one core's
// 1.003 mm² and 406.6 mW.
func CoreComponents() []Component {
	return []Component{
		{"Block Fetch Module", 1, 0.108, 10.5},
		{"Decompression Module", 4, 0.093, 43.0},
		{"Intersection Module", 1, 0.003, 0.49},
		{"Union Module", 1, 0.011, 5.55},
		{"Scoring Module", 4, 0.464, 200.0},
		{"Top-k Module", 1, 0.324, 147.1},
	}
}

// PeripheralComponents returns the device-level blocks of Table III
// (everything outside the cores).
func PeripheralComponents() []Component {
	return []Component{
		{"Command Queue", 1, 0.078, 0.078},
		{"Query Scheduler", 1, 0.001, 1.96},
		{"MAI (with TLB)", 1, 0.127, 1.20},
	}
}

// CoreArea reports one BOSS core's area in mm² (sums to the paper's
// 1.003 mm²).
func CoreArea() float64 { return sumArea(CoreComponents()) }

// CorePower reports one BOSS core's average power in mW (the paper's
// 406.6 mW).
func CorePower() float64 { return sumPower(CoreComponents()) }

// DeviceArea reports the area of a BOSS device with the given core count.
// At 8 cores this is the paper's 8.27 mm² total.
func DeviceArea(cores int) float64 {
	return float64(cores)*CoreArea() + sumArea(PeripheralComponents())
}

// DevicePower reports the average power in mW of a BOSS device with the
// given core count (the paper's 3.2 W at 8 cores).
func DevicePower(cores int) float64 {
	return float64(cores)*CorePower() + sumPower(PeripheralComponents())
}

// OnChipBuffer is one SRAM buffer inside a BOSS core (Section IV-C,
// "On-chip Buffers").
type OnChipBuffer struct {
	Name  string
	Count int
	Bytes int // total over Count instances
}

// CoreBuffers returns the per-core SRAM budget of Section IV-C; the totals
// sum to about 11 KB per core.
func CoreBuffers() []OnChipBuffer {
	return []OnChipBuffer{
		{"block fetch address/metadata", 1, 288},
		{"decompression target blocks", 4, 1024},
		{"intersection/union intermediate docIDs", 1, 192},
		{"scoring docID/tf staging", 4, 2048},
		{"top-k result buffer", 1, 8192},
	}
}

// CPUPackagePowerW is the measured average package power of the paper's
// host Xeon running Lucene (footnote 1: 74.8 W via Intel SoC Watch).
const CPUPackagePowerW = 74.8

// EnergyJ computes energy in joules from power in watts and a simulated
// runtime.
func EnergyJ(powerW float64, runtime sim.Duration) float64 {
	return powerW * sim.Seconds(runtime)
}

// BOSSEnergyJ computes the energy a BOSS device with the given core count
// consumes over a simulated runtime.
func BOSSEnergyJ(cores int, runtime sim.Duration) float64 {
	return EnergyJ(DevicePower(cores)/1000, runtime)
}

// LuceneEnergyJ computes the energy the host CPU consumes running Lucene
// for a simulated runtime.
func LuceneEnergyJ(runtime sim.Duration) float64 {
	return EnergyJ(CPUPackagePowerW, runtime)
}

func sumArea(cs []Component) float64 {
	var a float64
	for _, c := range cs {
		a += c.AreaMM2
	}
	return a
}

func sumPower(cs []Component) float64 {
	var p float64
	for _, c := range cs {
		p += c.PowerMW
	}
	return p
}
