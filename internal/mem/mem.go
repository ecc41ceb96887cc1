// Package mem models the memory substrate of the paper's system: SCM
// devices with asymmetric sequential/random read bandwidth and slow writes
// (calibrated to Table I's Optane DCPMM figures), DRAM devices for the
// Figure 16 comparison, multi-channel memory nodes, the shared
// memory-semantic host interconnect (CXL-like), and BOSS's Memory Access
// Interface (MAI) with its huge-page TLB.
//
// The model is transaction-level: an access occupies its channel for
// size/bandwidth and completes after an additional device latency. This
// captures exactly the properties the paper's results depend on — bandwidth
// ceilings, sequential-vs-random asymmetry, and queueing when many cores
// share few channels — without simulating DRAM command timing.
package mem

import (
	"fmt"

	"boss/internal/sim"
)

// Pattern classifies an access for bandwidth purposes.
type Pattern int

// Access patterns.
const (
	Sequential Pattern = iota // streaming reads of consecutive addresses
	Random                    // pointer-chasing / scattered reads
)

// String returns "seq" or "rand".
func (p Pattern) String() string {
	if p == Sequential {
		return "seq"
	}
	return "rand"
}

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
	// Channels is the number of independent channels on the node.
	Channels int
	// SeqReadGBs, RandReadGBs, WriteGBs are aggregate node bandwidths in
	// GB/s for sequential reads, random reads, and writes. (Table I quotes
	// the Optane write figure per channel: 2.3 GB/s x 4 channels.)
	SeqReadGBs  float64
	RandReadGBs float64
	WriteGBs    float64
	// ReadLatency and WriteLatency are fixed per-access device latencies.
	ReadLatency  sim.Duration
	WriteLatency sim.Duration
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
		Name:         "scm",
		Channels:     4,
		SeqReadGBs:   25.6,
		RandReadGBs:  6.6,
		WriteGBs:     9.2, // 2.3 GB/s per channel (Table I) x 4
		ReadLatency:  300 * sim.Nanosecond,
		WriteLatency: 100 * sim.Nanosecond,
		Granularity:  256,
	}
}

// DRAM returns the Figure 16 DRAM configuration: DDR4-2666 with 4 channels
// (85.2 GB/s), uniform read bandwidth and DRAM-class latency.
func DRAM() Config {
	return Config{
		Name:         "dram",
		Channels:     4,
		SeqReadGBs:   85.2,
		RandReadGBs:  42.6, // row-miss-dominated scattered reads
		WriteGBs:     85.2,
		ReadLatency:  100 * sim.Nanosecond,
		WriteLatency: 50 * sim.Nanosecond,
		Granularity:  64,
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

// stripeBytes is the address-interleaving granularity across channels.
const stripeBytes = 4096

// Node is one memory node: a set of channels sharing a device config.
type Node struct {
	cfg        Config
	channels   []*sim.Resource
	readBytes  int64
	writeBytes int64
}

// NewNode builds a memory node from cfg.
func NewNode(cfg Config) *Node {
	if cfg.Channels <= 0 {
		panic("mem: node needs at least one channel")
	}
	n := &Node{cfg: cfg}
	for i := 0; i < cfg.Channels; i++ {
		n.channels = append(n.channels, sim.NewResource(fmt.Sprintf("%s-ch%d", cfg.Name, i)))
	}
	return n
}

// channelFor picks the channel serving addr (page-stripe interleaving).
func (n *Node) channelFor(addr uint64) *sim.Resource {
	return n.channels[(addr/stripeBytes)%uint64(len(n.channels))]
}

// transferTime computes channel occupancy for size bytes at an aggregate
// bandwidth of gbs GB/s split evenly over the node's channels.
func (n *Node) transferTime(size int, gbs float64) sim.Duration {
	perChannel := gbs / float64(n.cfg.Channels)
	secs := float64(size) / (perChannel * 1e9)
	return sim.FromSeconds(secs)
}

// Read performs a read of size bytes at addr starting no earlier than `at`,
// returning the completion time. pattern selects the bandwidth class.
func (n *Node) Read(at sim.Time, addr uint64, size int, pattern Pattern) sim.Time {
	if size <= 0 {
		return at
	}
	effective := size
	bw := n.cfg.SeqReadGBs
	if pattern == Random {
		bw = n.cfg.RandReadGBs
		if rem := size % n.cfg.Granularity; rem != 0 {
			effective = size + n.cfg.Granularity - rem
		}
	}
	done := n.channelFor(addr).Acquire(at, n.transferTime(effective, bw))
	n.readBytes += int64(size)
	return done + n.cfg.ReadLatency
}

// Write performs a write of size bytes at addr, returning completion time.
func (n *Node) Write(at sim.Time, addr uint64, size int) sim.Time {
	if size <= 0 {
		return at
	}
	done := n.channelFor(addr).Acquire(at, n.transferTime(size, n.cfg.WriteGBs))
	n.writeBytes += int64(size)
	return done + n.cfg.WriteLatency
}

// TotalBytes reports all bytes moved (reads + writes), counting a random
// read at its requested size, not its granularity-rounded channel time.
func (n *Node) TotalBytes() int64 { return n.readBytes + n.writeBytes }

// BusyTime reports the maximum busy time over channels — the node's
// bandwidth-limiting critical path.
func (n *Node) BusyTime() sim.Duration {
	var max sim.Duration
	for _, ch := range n.channels {
		if b := ch.BusyTime(); b > max {
			max = b
		}
	}
	return max
}

// Bandwidth reports achieved bandwidth in GB/s over an elapsed duration.
func (n *Node) Bandwidth(elapsed sim.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(n.TotalBytes()) / sim.Seconds(elapsed) / 1e9
}

// Reset clears channel state and counters.
func (n *Node) Reset() {
	for _, ch := range n.channels {
		ch.Reset()
	}
	n.readBytes, n.writeBytes = 0, 0
}

// Link models the shared byte-addressable interconnect between the memory
// pool and the host CPU (e.g. one CXL link, 64 GB/s).
type Link struct {
	res *sim.Resource
	gbs float64
}

// DefaultLinkGBs is the paper's single-CXL-link bandwidth.
const DefaultLinkGBs = 64.0

// NewLink returns a shared link with the given bandwidth in GB/s.
func NewLink(gbs float64) *Link {
	return &Link{res: sim.NewResource("host-link"), gbs: gbs}
}

// Transfer moves size bytes across the link starting no earlier than `at`,
// returning the completion time.
func (l *Link) Transfer(at sim.Time, size int) sim.Time {
	if size <= 0 {
		return at
	}
	return l.res.Acquire(at, sim.FromSeconds(float64(size)/(l.gbs*1e9)))
}

// Utilization reports link busy fraction over elapsed.
func (l *Link) Utilization(elapsed sim.Duration) float64 {
	return l.res.Utilization(elapsed)
}

// Reset clears link state.
func (l *Link) Reset() { l.res.Reset() }
