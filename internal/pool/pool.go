// Package pool holds the paper's two system levels, each with its own
// config.
//
// The sharded Cluster (cluster.go, Config) is the Figure 1(b) pooled-memory
// deployment that serves queries: docID-interval shards on wall-clock
// accelerators behind one request path, with replication, resilience and
// the fetch phase.
//
// The Device (this file, DeviceConfig) is the event-driven simulation of
// the Figure 4 system: a memory node holding an index shard, several BOSS
// cores fed by a command queue and query scheduler, the node's SCM channels
// (with real queueing contention between cores), and the shared host
// interconnect. Where internal/perf composes per-query metrics analytically
// into a throughput roofline, the Device replays each query's traffic
// through sim.Resource bandwidth servers (the channels and the link; time
// advances only through Resource.Acquire, there is no event queue) and
// measures throughput, latency percentiles and utilization directly — the
// two views cross-validate each other (see the package tests).
package pool

import (
	"fmt"
	"sort"

	"boss/internal/clock"
	"boss/internal/core"
	"boss/internal/index"
	"boss/internal/mem"
	"boss/internal/perf"
	"boss/internal/sim"
)

// DeviceConfig describes one simulated memory node for the event-driven
// replay (New).
type DeviceConfig struct {
	// Cores is the number of BOSS cores on the node (the paper uses 8).
	Cores int
	// Mem is the node's device configuration (mem.SCM() or mem.DRAM()).
	Mem mem.Config
	// LinkGBs is the shared host-interconnect bandwidth.
	LinkGBs float64
	// K is the top-k depth used for all queries.
	K int
	// Opts configures the cores' early-termination features.
	Opts core.Options
}

// DefaultDeviceConfig is the paper's node: 8 cores over SCM, one CXL-class
// link.
func DefaultDeviceConfig() DeviceConfig {
	return DeviceConfig{
		Cores:   8,
		Mem:     mem.SCM(),
		LinkGBs: mem.DefaultLinkGBs,
		K:       core.DefaultK,
		Opts:    core.DefaultOptions(),
	}
}

// Config describes a sharded Cluster: what NewCluster and Fresh read.
type Config struct {
	// K is the top-k depth of queries that name none.
	K int
	// Opts configures the shard accelerators' early-termination features.
	Opts core.Options
	// Workers bounds the host-side goroutines a single query's shard
	// fan-out and Cluster.SearchBatchQueries' query pipeline run on
	// (0 = GOMAXPROCS).
	Workers int
	// CacheBytes is the byte budget of the cluster's cross-query decoded-
	// block cache, shared by all shards' wall-clock accelerators (every
	// Search* entry point). 0 disables the cache; negative values are
	// rejected by NewCluster with ErrBadConfig.
	CacheBytes int64
	// Replicas is the number of independently-faultable copies of each
	// shard the cluster keeps (R-way replication). Each replica has its
	// own accelerator, fault-injection domain, circuit breaker, and
	// cache-key space; every query routes across replicas
	// with deterministic seeded selection, skipping replicas whose
	// breakers are open. 1 (the DefaultConfig value) is single-copy
	// serving, byte-identical to the pre-replication code path; values
	// below 1 are rejected by NewCluster with ErrBadConfig.
	Replicas int
	// Resilience configures the cluster's serving-path fault handling
	// (every entry point runs under it). Zero fields take
	// DefaultResilience values.
	Resilience Resilience
	// Clock supplies time to breaker cooldowns, retry backoff and the hedge
	// cutoff; nil uses the wall clock. Tests and the chaos sweep inject a
	// clock.FakeClock, the same one as the front door's when one sits on top.
	Clock clock.Clock
}

// DefaultCacheBytes is the default decoded-block cache budget for wall-
// clock serving: 64 MiB comfortably holds the hot Zipf head of the
// harness corpora without approaching the index's own footprint.
const DefaultCacheBytes = 64 << 20

// DefaultConfig is single-copy serving with the decoded-block cache on.
func DefaultConfig() Config {
	return Config{
		K:          core.DefaultK,
		Opts:       core.DefaultOptions(),
		CacheBytes: DefaultCacheBytes,
		Replicas:   1,
	}
}

// Job is one query flowing through the device.
type Job struct {
	m      *perf.Metrics
	Submit sim.Time
	Start  sim.Time
	Done   sim.Time
}

// Latency reports the job's queueing + execution time.
func (j *Job) Latency() sim.Duration { return j.Done - j.Submit }

// Device is one simulated memory node with its BOSS accelerator.
type Device struct {
	cfg  DeviceConfig
	node *mem.Node
	mai  *mem.MAI
	link *mem.Link
	acc  *core.Accelerator

	// command queue (Figure 4's front end)
	queue []*Job
	// per-core busy-until times; the query scheduler dispatches to the
	// first free core
	coreFree []sim.Time

	jobs []*Job
}

// New builds a device over an index shard.
func New(cfg DeviceConfig, idx *index.Index) *Device {
	if cfg.Cores <= 0 {
		panic("pool: need at least one core")
	}
	node := mem.NewNode(cfg.Mem)
	return &Device{
		cfg:      cfg,
		node:     node,
		mai:      mem.NewMAI(node),
		link:     mem.NewLink(cfg.LinkGBs),
		acc:      core.New(idx, cfg.Opts),
		coreFree: make([]sim.Time, cfg.Cores),
	}
}

// Submit enqueues a query at the given simulated arrival time. It returns
// an error if the expression does not parse, is over the term limit or
// references unknown terms.
func (d *Device) Submit(expr string, at sim.Time) error {
	p, err := prepare(expr)
	if err != nil {
		return err
	}
	// Pre-flight the query on the core model: this yields the work metrics
	// whose traffic the event simulation replays under contention.
	m := perf.NewMetrics()
	if _, err := d.acc.Exec(nil, p.Plan, d.cfg.K, m, nil); err != nil {
		return err
	}
	j := &Job{m: m, Submit: at}
	d.jobs = append(d.jobs, j)
	d.queue = append(d.queue, j)
	return nil
}

// chunkBytes is the unit in which sequential traffic is replayed against
// the node (one address-interleaving stripe).
const chunkBytes = 4096

// Run executes all submitted queries and returns the report. The scheduler
// dispatches queued jobs to cores as they become free; each job's memory
// traffic is replayed through the shared node channels, so cores contend
// for bandwidth exactly as the paper's cycle-level simulation has them do.
func (d *Device) Run() *Report {
	// Sort by arrival; the command queue is FIFO.
	sort.SliceStable(d.queue, func(i, j int) bool { return d.queue[i].Submit < d.queue[j].Submit })
	for _, j := range d.queue {
		coreID := d.nextFreeCore()
		start := maxTime(j.Submit, d.coreFree[coreID])
		j.Start = start
		j.Done = d.execute(j, start)
		d.coreFree[coreID] = j.Done
	}
	d.queue = d.queue[:0]
	return d.report()
}

// nextFreeCore picks the core that frees up earliest (ties toward lower
// index: the scheduler scans in order).
func (d *Device) nextFreeCore() int {
	best := 0
	for i, f := range d.coreFree {
		if f < d.coreFree[best] {
			best = i
		}
	}
	return best
}

// execute replays one job's traffic against the shared node starting at
// start and returns its completion time.
func (d *Device) execute(j *Job, start sim.Time) sim.Time {
	m := j.m
	// Memory traffic: sequential bytes stream in stripe-sized chunks,
	// random accesses go one device line at a time, writes in chunks.
	// Addresses rotate across stripes so channel interleaving engages.
	var memDone sim.Time
	addr := uint64(j.Submit) // deterministic per-job placement seed
	issue := start
	charge := func(done sim.Time) {
		if done > memDone {
			memDone = done
		}
	}
	for remaining := m.SeqReadBytes; remaining > 0; remaining -= chunkBytes {
		size := int64(chunkBytes)
		if remaining < size {
			size = remaining
		}
		charge(d.mai.Read(issue, addr, int(size), mem.Sequential))
		addr += chunkBytes
	}
	if m.RandAccesses > 0 {
		per := m.RandReadBytes / m.RandAccesses
		if per <= 0 {
			per = 1
		}
		for i := int64(0); i < m.RandAccesses; i++ {
			addr = addr*6364136223846793005 + 1442695040888963407 // LCG scatter
			charge(d.mai.Read(issue, addr%(1<<41), int(per), mem.Random))
		}
	}
	for remaining := m.WriteBytes; remaining > 0; remaining -= chunkBytes {
		size := int64(chunkBytes)
		if remaining < size {
			size = remaining
		}
		charge(d.mai.Write(issue, addr, int(size)))
		addr += chunkBytes
	}
	// Results cross the shared link.
	charge(d.link.Transfer(issue, int(m.HostBytes)))
	// Pipeline: compute overlaps memory. Serialized fetch hops and
	// dependent random accesses extend the critical path.
	done := maxTime(start+m.ComputeTime, memDone)
	done += sim.Duration(m.DependentRandAccesses+m.SerialFetchHops) * d.cfg.Mem.ReadLatency
	return done
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

// Report summarizes a Run.
type Report struct {
	Jobs        int
	Makespan    sim.Duration
	QPS         float64
	MeanLatency sim.Duration
	P50Latency  sim.Duration
	P99Latency  sim.Duration
	// NodeBandwidthGBs is the achieved device bandwidth over the makespan.
	NodeBandwidthGBs float64
	// LinkUtilization is the shared interconnect's busy fraction.
	LinkUtilization float64
	// PeakChannelUtilization is the busiest channel's utilization.
	PeakChannelUtilization float64
}

func (d *Device) report() *Report {
	r := &Report{Jobs: len(d.jobs)}
	if len(d.jobs) == 0 {
		return r
	}
	lats := make([]sim.Duration, 0, len(d.jobs))
	var sumLat sim.Duration
	var makespan sim.Time
	for _, j := range d.jobs {
		l := j.Latency()
		lats = append(lats, l)
		sumLat += l
		if j.Done > makespan {
			makespan = j.Done
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	r.Makespan = makespan
	r.MeanLatency = sumLat / sim.Duration(len(lats))
	r.P50Latency = lats[len(lats)/2]
	r.P99Latency = lats[len(lats)*99/100]
	if makespan > 0 {
		r.QPS = float64(len(d.jobs)) / sim.Seconds(makespan)
		r.NodeBandwidthGBs = d.node.Bandwidth(makespan)
		r.LinkUtilization = d.link.Utilization(makespan)
		r.PeakChannelUtilization = float64(d.node.BusyTime()) / float64(makespan)
	}
	return r
}

// String renders the report.
func (r *Report) String() string {
	return fmt.Sprintf(
		"jobs=%d makespan=%.3fms qps=%.0f latency(mean/p50/p99)=%.1f/%.1f/%.1fus node=%.2fGB/s link=%.1f%% peak-channel=%.1f%%",
		r.Jobs, sim.Seconds(r.Makespan)*1e3, r.QPS,
		sim.Seconds(r.MeanLatency)*1e6, sim.Seconds(r.P50Latency)*1e6, sim.Seconds(r.P99Latency)*1e6,
		r.NodeBandwidthGBs, 100*r.LinkUtilization, 100*r.PeakChannelUtilization)
}
