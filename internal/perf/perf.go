// Package perf defines the per-query work metrics every engine model
// (Lucene baseline, IIU, BOSS) produces, and composes them into latency and
// multi-core throughput figures under a memory-device model.
//
// The composition is a roofline: a fully pipelined engine's single-query
// latency is the maximum of its compute time and its memory-channel
// occupancy, plus any serialized (dependency-chained) random accesses, which
// cannot be hidden by pipelining. Multi-core throughput is the minimum of
// the compute ceiling (cores / per-query time), the memory-bandwidth ceiling
// (1 / per-query channel occupancy), and the host-interconnect ceiling.
// These are exactly the bottlenecks the paper's Figures 9-13 trace.
package perf

import (
	"boss/internal/mem"
	"boss/internal/sim"
)

// Metrics accumulates the work one query performs.
type Metrics struct {
	// Traffic in bytes by pattern/direction against the local device.
	SeqReadBytes  int64
	RandReadBytes int64
	WriteBytes    int64
	// RandAccesses counts random-read operations (each rounded up to the
	// device granularity for bandwidth purposes).
	RandAccesses int64
	// DependentRandAccesses counts random reads that are serialized by a
	// data dependency (e.g. binary-search probes); they each pay full
	// device latency and cannot be pipelined.
	DependentRandAccesses int64
	// SerialFetchHops counts exposed device round trips in an engine's
	// fetch pipeline: with a finite number of outstanding block requests,
	// every queue-depth's worth of fetches exposes one full read latency.
	SerialFetchHops int64
	// HostBytes is traffic over the shared host interconnect.
	HostBytes int64
	// ComputeTime is the engine's pipeline/CPU busy time for the query.
	ComputeTime sim.Duration
	// Cat breaks device traffic down by Figure 15 category (bytes). A fixed
	// array indexed by mem.Category: the engines charge every block and
	// every scored document here, so the accounting must not hash.
	Cat [mem.NumCategories]int64
	// CatAcc counts device accesses per category (Figure 15 plots access
	// counts; block loads, line fills and spill bursts each count once).
	CatAcc [mem.NumCategories]int64

	// Work counters for Figure 14-style analyses.
	BlocksFetched    int64
	BlocksSkipped    int64
	DocsEvaluated    int64
	PostingsDecoded  int64
	MembershipProbes int64

	// Fault counters (PR 5). Both stay zero with an empty
	// FaultPlan, so every reproduction figure is unaffected.
	//
	// TransientRetries counts block reads re-issued after an injected
	// transient fault (each retry re-streams the block, so its traffic
	// also appears in SeqReadBytes).
	TransientRetries int64
	// IntegrityFailures counts blocks whose CRC/ECC verification
	// failed — injected uncorrectable media errors and real checksum
	// mismatches both land here.
	IntegrityFailures int64

	// Fetch-phase counters (PR 7). Document fetches charge their device
	// traffic under mem.CatLoadDoc — outside the Figure 15 display list —
	// and both counters stay zero in search-only runs, so every
	// reproduction figure is unaffected.
	//
	// DocsFetched counts documents returned by the fetch engine.
	DocsFetched int64
	// DocBlocksFetched counts document-store block fetches (cache hits
	// replay the same charge, so the count is cache-independent).
	DocBlocksFetched int64
}

// NewMetrics returns an empty metrics record.
func NewMetrics() *Metrics {
	return &Metrics{}
}

// AddSeqRead charges size bytes of sequential device reads to category.
//
//boss:hotpath one call per fetched block and per scored document.
func (m *Metrics) AddSeqRead(size int64, category mem.Category) {
	m.SeqReadBytes += size
	m.Cat[category] += size
	m.CatAcc[category]++
}

// AddRandRead charges one random device read of size bytes to category.
// dependent marks reads serialized by data dependencies.
func (m *Metrics) AddRandRead(size int64, category mem.Category, dependent bool) {
	m.RandReadBytes += size
	m.RandAccesses++
	if dependent {
		m.DependentRandAccesses++
	}
	m.Cat[category] += size
	m.CatAcc[category]++
}

// AddWrite charges size bytes of device writes to category.
func (m *Metrics) AddWrite(size int64, category mem.Category) {
	m.WriteBytes += size
	m.Cat[category] += size
	m.CatAcc[category]++
}

// AddHost charges size bytes over the host interconnect (also recorded
// under category for breakdowns).
func (m *Metrics) AddHost(size int64, category mem.Category) {
	m.HostBytes += size
}

// AddHostWrite records a result store that crosses the interconnect into
// host memory: it appears in the category breakdown and in link traffic,
// but does not occupy the local device's channels.
func (m *Metrics) AddHostWrite(size int64, category mem.Category) {
	m.HostBytes += size
	m.Cat[category] += size
	m.CatAcc[category]++
}

// AddCompute adds pipeline/CPU busy time.
func (m *Metrics) AddCompute(d sim.Duration) { m.ComputeTime += d }

// Merge adds other into m.
func (m *Metrics) Merge(other *Metrics) {
	m.SeqReadBytes += other.SeqReadBytes
	m.RandReadBytes += other.RandReadBytes
	m.WriteBytes += other.WriteBytes
	m.RandAccesses += other.RandAccesses
	m.DependentRandAccesses += other.DependentRandAccesses
	m.SerialFetchHops += other.SerialFetchHops
	m.HostBytes += other.HostBytes
	m.ComputeTime += other.ComputeTime
	m.BlocksFetched += other.BlocksFetched
	m.BlocksSkipped += other.BlocksSkipped
	m.DocsEvaluated += other.DocsEvaluated
	m.PostingsDecoded += other.PostingsDecoded
	m.MembershipProbes += other.MembershipProbes
	m.TransientRetries += other.TransientRetries
	m.IntegrityFailures += other.IntegrityFailures
	m.DocsFetched += other.DocsFetched
	m.DocBlocksFetched += other.DocBlocksFetched
	for k, v := range other.Cat {
		m.Cat[k] += v
	}
	for k, v := range other.CatAcc {
		m.CatAcc[k] += v
	}
}

// Scale multiplies all counters by 1/n, for averaging over n queries.
func (m *Metrics) Scale(n int64) {
	if n <= 1 {
		return
	}
	m.SeqReadBytes /= n
	m.RandReadBytes /= n
	m.WriteBytes /= n
	m.RandAccesses /= n
	m.DependentRandAccesses /= n
	m.SerialFetchHops /= n
	m.HostBytes /= n
	m.ComputeTime /= sim.Duration(n)
	m.BlocksFetched /= n
	m.BlocksSkipped /= n
	m.DocsEvaluated /= n
	m.PostingsDecoded /= n
	m.MembershipProbes /= n
	m.TransientRetries /= n
	m.IntegrityFailures /= n
	m.DocsFetched /= n
	m.DocBlocksFetched /= n
	for k := range m.Cat {
		m.Cat[k] /= n
	}
	for k := range m.CatAcc {
		m.CatAcc[k] /= n
	}
}

// DeviceBytes reports total device traffic (reads + writes).
func (m *Metrics) DeviceBytes() int64 {
	return m.SeqReadBytes + m.RandReadBytes + m.WriteBytes
}

// MemOccupancy computes how long the query occupies the device's channels
// under cfg: the aggregate transfer time of all its traffic at the
// pattern-appropriate bandwidths (random reads rounded up to the device
// granularity).
func (m *Metrics) MemOccupancy(cfg mem.Config) sim.Duration {
	randEffective := float64(m.RandReadBytes)
	if m.RandAccesses > 0 {
		avg := float64(m.RandReadBytes) / float64(m.RandAccesses)
		g := float64(cfg.Granularity)
		rounded := (int64(avg) + int64(g) - 1) / int64(g) * int64(g)
		randEffective = float64(rounded * m.RandAccesses)
	}
	secs := float64(m.SeqReadBytes)/(cfg.SeqReadGBs*1e9) +
		randEffective/(cfg.RandReadGBs*1e9) +
		float64(m.WriteBytes)/(cfg.WriteGBs*1e9)
	return sim.FromSeconds(secs)
}

// Latency computes single-core query latency under cfg: compute and
// pipelined memory traffic overlap (roofline max), while dependency-chained
// random accesses serialize and each pays the device read latency.
func (m *Metrics) Latency(cfg mem.Config) sim.Duration {
	t := m.ComputeTime
	if occ := m.MemOccupancy(cfg); occ > t {
		t = occ
	}
	return t + sim.Duration(m.DependentRandAccesses+m.SerialFetchHops)*cfg.ReadLatency
}

// Throughput computes queries/second for `cores` engines sharing one
// device node and one host link, given the average per-query metrics.
func (m *Metrics) Throughput(cores int, cfg mem.Config, linkGBs float64) float64 {
	lat := sim.Seconds(m.Latency(cfg))
	if lat <= 0 {
		return 0
	}
	qps := float64(cores) / lat
	if occ := sim.Seconds(m.MemOccupancy(cfg)); occ > 0 {
		if memQPS := 1 / occ; memQPS < qps {
			qps = memQPS
		}
	}
	if m.HostBytes > 0 && linkGBs > 0 {
		if linkQPS := linkGBs * 1e9 / float64(m.HostBytes); linkQPS < qps {
			qps = linkQPS
		}
	}
	return qps
}

// Bandwidth reports the device bandwidth (GB/s) the engine consumes when
// running at the given query throughput.
func (m *Metrics) Bandwidth(qps float64) float64 {
	return qps * float64(m.DeviceBytes()) / 1e9
}
