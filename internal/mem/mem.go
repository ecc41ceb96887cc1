// Package mem holds the memory substrate's constants and fault model. Config
// and its four presets carry Table I's device figures — SCM with asymmetric
// sequential/random read bandwidth and slow writes (Optane DCPMM), DRAM for
// the Figure 16 comparison, and the host-side variants — and
// DefaultLinkGBs is the shared host interconnect's (CXL-like) bandwidth.
// internal/perf composes them with a query's charged traffic into a
// roofline; nothing here advances time. Category tags that traffic for
// Figure 15's breakdown, and fault.go is the serving path's seeded,
// block-keyed fault model.
package mem

import "boss/internal/sim"

// Category tags device traffic for Figure 15's memory-access breakdown. A
// small integer (not a string) so the per-block/per-document charging in
// the engines indexes a fixed array instead of hashing into a map — the
// accounting is on every model's hottest path.
type Category uint8

// Traffic categories, matching Figure 15's memory-access breakdown.
const (
	CatLoadList    Category = iota // posting-list block loads
	CatLoadInter                   // intermediate-result loads
	CatStoreInter                  // intermediate-result stores
	CatLoadScore                   // per-document scoring metadata loads
	CatStoreResult                 // result stores (to host-visible memory)
	CatLoadMeta                    // block metadata loads
	CatLoadDoc                     // document-store block loads (fetch phase)

	// NumCategories sizes per-category accounting arrays.
	NumCategories
)

// String returns the paper's display name for the category.
func (c Category) String() string {
	switch c {
	case CatLoadList:
		return "LD List"
	case CatLoadInter:
		return "LD Inter"
	case CatStoreInter:
		return "ST Inter"
	case CatLoadScore:
		return "LD Score"
	case CatStoreResult:
		return "ST Result"
	case CatLoadMeta:
		return "LD Meta"
	case CatLoadDoc:
		return "LD Doc"
	default:
		return "?"
	}
}

// Categories lists the Figure 15 categories in display order.
func Categories() []Category {
	return []Category{CatLoadList, CatLoadInter, CatStoreInter, CatLoadScore, CatStoreResult}
}

// Config describes one memory device type attached to a node.
type Config struct {
	// Name labels the device ("scm", "dram").
	Name string
	// Channels is the number of independent channels on the node (Table I
	// prints it; the roofline reads only the aggregate bandwidths below).
	Channels int
	// SeqReadGBs, RandReadGBs, WriteGBs are aggregate node bandwidths in
	// GB/s for sequential reads, random reads, and writes. (Table I quotes
	// the Optane write figure per channel: 2.3 GB/s x 4 channels.)
	SeqReadGBs  float64
	RandReadGBs float64
	WriteGBs    float64
	// ReadLatency is the fixed per-access device read latency.
	ReadLatency sim.Duration
	// Granularity is the device's internal access unit in bytes; random
	// accesses are rounded up to it (256 B for Optane's XPLine, 64 B for
	// DRAM).
	Granularity int
}

// SCM returns the paper's BOSS memory-node configuration (Table I): 4 SCM
// channels, 25.6 GB/s sequential read, 6.6 GB/s random read, 2.3 GB/s
// write, with Optane-like latency and 256 B internal granularity.
func SCM() Config {
	return Config{
		Name:        "scm",
		Channels:    4,
		SeqReadGBs:  25.6,
		RandReadGBs: 6.6,
		WriteGBs:    9.2, // 2.3 GB/s per channel (Table I) x 4
		ReadLatency: 300 * sim.Nanosecond,
		Granularity: 256,
	}
}

// DRAM returns the Figure 16 DRAM configuration: DDR4-2666 with 4 channels
// (85.2 GB/s), uniform read bandwidth and DRAM-class latency.
func DRAM() Config {
	return Config{
		Name:        "dram",
		Channels:    4,
		SeqReadGBs:  85.2,
		RandReadGBs: 42.6, // row-miss-dominated scattered reads
		WriteGBs:    85.2,
		ReadLatency: 100 * sim.Nanosecond,
		Granularity: 64,
	}
}

// HostSCM returns the host-side SCM memory system of Table I (6 channels,
// 39.6 GB/s), used when the Lucene baseline runs against SCM.
func HostSCM() Config {
	c := SCM()
	c.Name = "host-scm"
	c.Channels = 6
	c.SeqReadGBs = 39.6
	c.RandReadGBs = 9.9
	c.WriteGBs = 13.8 // 2.3 GB/s per channel x 6
	return c
}

// HostDRAM returns the host-side DRAM system of Table I (DDR4-2666, 6
// channels, 140.76 GB/s).
func HostDRAM() Config {
	c := DRAM()
	c.Name = "host-dram"
	c.Channels = 6
	c.SeqReadGBs = 140.76
	c.RandReadGBs = 70.4
	c.WriteGBs = 140.76
	return c
}

// DefaultLinkGBs is the paper's single-CXL-link bandwidth: the shared
// byte-addressable interconnect between the memory pool and the host CPU.
const DefaultLinkGBs = 64.0
