// Command bossbench regenerates the paper's tables and figures from the
// models in this repository.
//
// Usage:
//
//	bossbench -exp fig9            # one experiment
//	bossbench -exp all             # everything, in paper order
//	bossbench -list                # list experiment ids
//	bossbench -exp fig9 -full      # larger corpora/workload (slower)
//	bossbench -scale 0.05 -k 500   # custom scope
//	bossbench -chaos               # availability/QPS under fault injection
//	bossbench -chaos -replicas 2 -replicakill  # replica failover: copy 0 of every shard dead
//	bossbench -overload            # front-door goodput/tail-latency under overload
//	bossbench -chaos -json         # either sweep, machine-readable
//	bossbench -profile out         # also write out.cpu.pprof + out.heap.pprof
//
// Serving throughput, the fetch phase and the SPARSE family are measured
// by the repository's one benchmark, `go run ./bench` (see bench/README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"boss/internal/harness"
)

func main() {
	var (
		expID   = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		full    = flag.Bool("full", false, "use the larger FullConfig workload")
		scale   = flag.Float64("scale", 0, "override corpus scale (0 = config default)")
		perType = flag.Int("queries", 0, "override queries per type (0 = config default)")
		k       = flag.Int("k", 0, "override top-k depth (0 = config default)")
		seed    = flag.Int64("seed", 0, "override workload seed (0 = config default)")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned text")
		chaos   = flag.Bool("chaos", false, "sweep fault-injection rates and report availability/QPS of the resilient serving path")
		over    = flag.Bool("overload", false, "sweep offered load past capacity and report front-door goodput, shedding, and tail latency")
		shards  = flag.Int("shards", 4, "cluster shard count for -chaos and -overload")
		reps    = flag.Int("replicas", 1, "with -chaos, copies of every shard (replication + failover retries when > 1)")
		repKill = flag.Bool("replicakill", false, "with -chaos, kill copy 0 of every shard at each point (requires -replicas >= 2)")
		jsonOut = flag.Bool("json", false, "with -chaos or -overload, emit the report as JSON")
		profile = flag.String("profile", "", "write <prefix>.cpu.pprof and <prefix>.heap.pprof covering the run")
	)
	flag.Parse()

	if *profile != "" {
		cpuFile, err := os.Create(*profile + ".cpu.pprof")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bossbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			fmt.Fprintf(os.Stderr, "bossbench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = cpuFile.Close()
			heapFile, err := os.Create(*profile + ".heap.pprof")
			if err != nil {
				fmt.Fprintf(os.Stderr, "bossbench: %v\n", err)
				os.Exit(1)
			}
			defer func() { _ = heapFile.Close() }()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(heapFile); err != nil {
				fmt.Fprintf(os.Stderr, "bossbench: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := harness.QuickConfig()
	if *full {
		cfg = harness.FullConfig()
	}
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *perType > 0 {
		cfg.PerType = *perType
	}
	if *k > 0 {
		cfg.K = *k
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	ctx := harness.NewContext(cfg)

	switch {
	case *over:
		rep := harness.Overload(ctx, *shards)
		emit(rep, &rep.ReportHeader, *jsonOut, *csv)
		return
	case *chaos:
		if *repKill && *reps < 2 {
			fmt.Fprintln(os.Stderr, "bossbench: -replicakill requires -replicas >= 2 (with one copy a whole-replica kill is just an outage)")
			os.Exit(1)
		}
		rep := harness.Chaos(ctx, *shards, *reps, *repKill)
		emit(rep, &rep.ReportHeader, *jsonOut, *csv)
		return
	}

	run := func(e harness.Experiment) {
		for _, t := range e.Run(ctx) {
			if *csv {
				fmt.Printf("# %s: %s\n%s\n", t.ID, t.Title, t.CSV())
			} else {
				fmt.Println(t.String())
			}
		}
	}

	if *expID == "all" {
		for _, e := range harness.Experiments() {
			run(e)
		}
		return
	}
	e, ok := harness.Find(*expID)
	if !ok {
		fmt.Fprintf(os.Stderr, "bossbench: unknown experiment %q (use -list)\n", *expID)
		os.Exit(1)
	}
	run(e)
}

// emit prints a sweep report: the report itself as indented JSON (its
// header stamped with the creation time), or its table as CSV or aligned
// text.
func emit(rep interface{ Table() *harness.Table }, hdr *harness.ReportHeader, jsonOut, csv bool) {
	switch {
	case jsonOut:
		hdr.Created = time.Now().UTC().Format(time.RFC3339)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "bossbench: %v\n", err)
			os.Exit(1)
		}
	case csv:
		t := rep.Table()
		fmt.Printf("# %s: %s\n%s\n", t.ID, t.Title, t.CSV())
	default:
		fmt.Println(rep.Table().String())
	}
}
