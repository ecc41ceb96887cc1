package main

import "boss/internal/corpus"

// The sizes below were frozen after sizing on the reference 2-core box
// (see README.md, "Sizing"). Counts, not durations, bound every phase, so
// a parent commit and a change execute identical requests; -seconds
// scales the counts linearly from refSeconds.
const (
	refSeconds   = 10    // the run length the counts below were sized for
	corpusScale  = 0.25  // corpus.ClueWebLike(0.25): 250k docs, 30k terms
	smokeScale   = 0.01  // -smoke and the package tests
	numShards    = 4     // pool.NewCluster shard count
	setupRounds  = 3     // deployment constructions; setup_s is their median
	unitOps      = 16    // requests per sat unit: front.Config's default BatchTarget
	openSlices   = 4     // open-loop slices; open_p50_ms is the quietest slice's p50
	zipfS        = 1.07  // term-popularity exponent of every request stream
	kernelSample = 500   // stream prefix the traced run's kernel replays use
	kernelBlocks = 20000 // cap on posting blocks the block kernels touch
	smokeCount   = 200   // requests per phase under -smoke
	minSeqN      = 1100  // fewest seq requests that support a p99 (stats.go)
	wallLimitSec = 150   // hard wall timeout of one workload run
)

// spec describes one workload. Names are final: BENCHMARK.json, the
// README's interaction table and -compare all key on them.
type spec struct {
	name string
	why  string
	// types are the Table II query families interleaved into the stream.
	types []corpus.QueryType
	k     int
	// cacheBytes is the cluster's decoded-block cache budget (0 = the
	// 64 MiB serving default).
	cacheBytes int64
	// fetch chains every search into a FetchIDs request for its hits.
	fetch bool
	// sparse serves through the facade's single-device deployment.
	sparse bool
	// figures is the model-only workload (no serving phases).
	figures bool

	streamN  int     // stream positions (queries sampled per run)
	seqN     int     // one-in-flight requests (svc_*, sim_*)
	satUnits int     // sat units of unitOps requests
	replays  int     // times the seq requests and the sat units are replayed
	openRate float64 // Poisson arrival rate of the open phase, per second
	openSec  float64 // duration of one open slice
	passes   int     // figures: harness passes
}

// specs lists the six workloads in report order. The first five are the
// serving workloads BENCHMARK.json names; figures reports a subset of the
// end-to-end metrics and is therefore not listed there (the driver's
// contract wants every listed workload to print every listed metric).
var specs = []spec{
	{
		name:  "conj-fit",
		why:   "Q2+Q4 conjunctions, k=10, 64 MiB cache holds the working set: front, query, pool dispatch/merge and core set operations do the work",
		types: []corpus.QueryType{corpus.Q2, corpus.Q4}, k: 10,
		streamN: 8000, seqN: 3000, satUnits: 500, replays: 3, openRate: 600, openSec: 0.5,
	},
	{
		name:  "conj-spill",
		why:   "the conj-fit stream with a 2.25 MiB cache (posting hit rate 0.5-0.7, evictions > 0): block read, CRC and decomp netlist decode dominate",
		types: []corpus.QueryType{corpus.Q2, corpus.Q4}, k: 10, cacheBytes: 2304 << 10,
		streamN: 4000, seqN: 2000, satUnits: 250, replays: 3, openRate: 400, openSec: 0.5,
	},
	{
		name:  "ranked-or",
		why:   "Q1+Q3+Q5+Q6 unions and mixed queries at k=100: block-max/WAND early termination, score and top-k at a deep k do the work",
		types: []corpus.QueryType{corpus.Q1, corpus.Q3, corpus.Q5, corpus.Q6}, k: 100,
		streamN: 1600, seqN: 1100, satUnits: 80, replays: 3, openRate: 200, openSec: 0.5,
	},
	{
		name:  "sparse-q7",
		why:   "SPARSE(8 terms), k=10, impact-quantized single-device index through the facade: MaxScore, the impact scorer and serve.go's serial accelBackend",
		types: []corpus.QueryType{corpus.Q7}, k: 10, sparse: true,
		streamN: 1600, seqN: 1100, satUnits: 80, replays: 3, openRate: 200, openSec: 0.5,
	},
	{
		name:  "search-fetch",
		why:   "each op chains Submit(Expr) into Submit(FetchIDs=hits); 32 MiB cache shared by posting and document blocks, so the two classes compete",
		types: []corpus.QueryType{corpus.Q2, corpus.Q4}, k: 10, cacheBytes: 32 << 20, fetch: true,
		streamN: 8000, seqN: 3000, satUnits: 300, replays: 3, openRate: 500, openSec: 0.5,
	},
	{
		name:    "figures",
		why:     "full harness.Experiments() passes at FullConfig: the engine, iiu, mem, sim, perf, hw, compress and decomp models no serving workload touches",
		figures: true, passes: 5,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled returns the spec with every phase count scaled by f (the ratio of
// -seconds to refSeconds), or pinned to smokeCount under -smoke. Replay
// counts do not scale: they are what makes the floor estimates robust.
func (s spec) scaled(f float64, smoke bool) spec {
	if s.figures {
		if s.passes = int(float64(s.passes)*f + 0.5); s.passes < 1 || smoke {
			s.passes = 1
		}
		return s
	}
	if smoke {
		s.streamN, s.seqN, s.satUnits = smokeCount, smokeCount, smokeCount/unitOps
		s.replays = 2
		s.openSec = float64(smokeCount) / openSlices / s.openRate
		return s
	}
	scale := func(n, min int) int {
		if n = int(float64(n)*f + 0.5); n < min {
			n = min
		}
		return n
	}
	s.seqN = scale(s.seqN, 50)
	s.satUnits = scale(s.satUnits, 8)
	s.openSec *= f
	return s
}
