// Command poolsim runs the event-driven device simulation: a batch of
// queries flows through the command queue, query scheduler and BOSS cores
// of one memory node, contending for the node's SCM channels and the shared
// host link. It prints throughput, latency percentiles and utilization —
// the dynamic counterpart of cmd/bossbench's analytic tables.
//
// Usage:
//
//	poolsim -cores 8 -queries 64 -type Q5
//	poolsim -cores 2 -dram -k 100
package main

import (
	"flag"
	"fmt"
	"os"

	"boss/internal/compress"
	"boss/internal/core"
	"boss/internal/corpus"
	"boss/internal/index"
	"boss/internal/mem"
	"boss/internal/pool"
	"boss/internal/sim"
)

func main() {
	var (
		corpusName = flag.String("corpus", "clueweb", "synthetic corpus: clueweb or ccnews")
		scale      = flag.Float64("scale", 0.02, "corpus scale in (0,1]")
		cores      = flag.Int("cores", 8, "BOSS cores on the node")
		nQueries   = flag.Int("queries", 64, "queries in the batch")
		qtypeName  = flag.String("type", "mix", "query type Q1..Q6 or 'mix'")
		k          = flag.Int("k", 1000, "top-k depth")
		useDRAM    = flag.Bool("dram", false, "DRAM node instead of SCM")
		arrivalUS  = flag.Float64("gap", 0, "inter-arrival gap in microseconds (0 = all at once)")
		exhaustive = flag.Bool("exhaustive", false, "disable early termination")
	)
	flag.Parse()

	spec, err := corpus.ByName(*corpusName, *scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "poolsim: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("building %s shard (scale %.3f)...\n", spec.Name, *scale)
	c := corpus.Generate(spec)
	idx := index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid})

	cfg := pool.DefaultDeviceConfig()
	cfg.Cores = *cores
	cfg.K = *k
	if *useDRAM {
		cfg.Mem = mem.DRAM()
	}
	if *exhaustive {
		cfg.Opts = core.ExhaustiveOptions()
	}
	dev := pool.New(cfg, idx)

	var queries []corpus.Query
	if *qtypeName == "mix" {
		per := *nQueries/6 + 1
		for _, qt := range corpus.AllQueryTypes() {
			queries = append(queries, corpus.SampleQueries(c, qt, per, 17)...)
		}
		queries = queries[:*nQueries]
	} else {
		var qt corpus.QueryType
		if _, err := fmt.Sscanf(*qtypeName, "Q%d", &qt); err != nil || qt < corpus.Q1 || qt > corpus.Q6 {
			fmt.Fprintf(os.Stderr, "poolsim: bad query type %q\n", *qtypeName)
			os.Exit(1)
		}
		queries = corpus.SampleQueries(c, qt, *nQueries, 17)
	}

	gap := sim.FromSeconds(*arrivalUS / 1e6)
	for i, q := range queries {
		if err := dev.Submit(q.Expr, sim.Time(i)*gap); err != nil {
			fmt.Fprintf(os.Stderr, "poolsim: %v\n", err)
			os.Exit(1)
		}
	}

	fmt.Printf("device: %d cores over %s, link %.0f GB/s, k=%d, %d queries (%s)\n\n",
		cfg.Cores, cfg.Mem.Name, cfg.LinkGBs, cfg.K, len(queries), *qtypeName)
	fmt.Println(dev.Run())
}
