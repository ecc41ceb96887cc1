// Command bossquery runs a single query expression against the software
// engine, the IIU model, and the BOSS model over one synthetic corpus, and
// prints the top-k results plus each system's simulated execution profile.
//
// Usage:
//
//	bossquery -query '"t0" AND ("t3" OR "t9")' -k 10
//	bossquery -corpus ccnews -scale 0.05 -query '"t1" OR "t2"' -cores 4
package main

import (
	"flag"
	"fmt"
	"os"

	"boss/internal/compress"
	"boss/internal/core"
	"boss/internal/corpus"
	"boss/internal/engine"
	"boss/internal/iiu"
	"boss/internal/index"
	"boss/internal/mem"
	"boss/internal/perf"
	"boss/internal/query"
	"boss/internal/sim"
	"boss/internal/topk"
)

func main() {
	var (
		corpusName = flag.String("corpus", "clueweb", "synthetic corpus: clueweb or ccnews")
		scale      = flag.Float64("scale", 0.02, "corpus scale in (0,1]")
		exprText   = flag.String("query", `"t0" AND ("t3" OR "t9")`, "query expression")
		k          = flag.Int("k", 10, "top-k depth")
		cores      = flag.Int("cores", 8, "accelerator core count for throughput estimates")
		useDRAM    = flag.Bool("dram", false, "use the DRAM pool configuration instead of SCM")
	)
	flag.Parse()

	spec, err := corpus.ByName(*corpusName, *scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bossquery: %v\n", err)
		os.Exit(1)
	}

	node, err := query.Parse(*exprText)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bossquery: %v\n", err)
		os.Exit(1)
	}

	sparse := node.Op == query.OpSparse

	fmt.Printf("corpus %s (scale %.3f): generating and indexing...\n", spec.Name, *scale)
	c := corpus.Generate(spec)
	// Sparse-dot (Q7) reads quantized impacts straight from the posting
	// payloads, so the ad-hoc index carries them whenever the query needs
	// them; boolean queries keep the plain build.
	hybrid := index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid, Impacts: sparse})
	fixed := index.Build(c, index.BuildOptions{Scheme: compress.BP})
	fmt.Printf("  %d docs, %d terms, %d postings, footprint %.1f MB\n\n",
		spec.NumDocs, spec.NumTerms, c.TotalPostings, float64(hybrid.TotalBytes)/1e6)

	dev := mem.SCM()
	hostDev := mem.HostSCM()
	if *useDRAM {
		dev = mem.DRAM()
		hostDev = mem.HostDRAM()
	}

	type outcome struct {
		name string
		topk []topk.Entry
		m    *perf.Metrics
		dev  mem.Config
		link float64
	}
	var outcomes []outcome

	if res, err := engine.New(hybrid).Run(node, *k); err != nil {
		fmt.Fprintf(os.Stderr, "engine: %v\n", err)
		os.Exit(1)
	} else {
		outcomes = append(outcomes, outcome{"Lucene-like engine", res.TopK, res.M, hostDev, 0})
	}
	// The IIU model predates the sparse-dot family; its hardware walks
	// boolean DNF plans only, so Q7 skips it rather than faking a result.
	if !sparse {
		if res, err := iiu.New(fixed).Run(node, *k); err != nil {
			fmt.Fprintf(os.Stderr, "iiu: %v\n", err)
			os.Exit(1)
		} else {
			outcomes = append(outcomes, outcome{"IIU", res.TopK, res.M, dev, mem.DefaultLinkGBs})
		}
	}
	acc := core.New(hybrid, core.DefaultOptions())
	m := perf.NewMetrics()
	if top, err := acc.Exec(nil, node.Plan(), *k, m, nil); err != nil {
		fmt.Fprintf(os.Stderr, "boss: %v\n", err)
		os.Exit(1)
	} else {
		outcomes = append(outcomes, outcome{"BOSS", top, m, dev, mem.DefaultLinkGBs})
	}

	fmt.Printf("query: %s  (top-%d)\n\n", node, *k)
	fmt.Printf("top results (from BOSS):\n")
	boss := outcomes[len(outcomes)-1]
	for i, e := range boss.topk {
		fmt.Printf("  %2d. doc%-8d score %.4f\n", i+1, e.DocID, e.Score)
	}

	if sparse {
		// Show the MaxScore partition at the converged top-k threshold:
		// which term lists stayed essential (drive candidates) and which
		// were demoted to probe-only once the heap filled.
		threshold := 0.0
		if len(boss.topk) >= *k {
			threshold = boss.topk[len(boss.topk)-1].Score
		}
		plan, err := acc.PlanSparse(node.Terms(), threshold)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bossquery: plan: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nsparse plan (threshold %.4f):\n", threshold)
		fmt.Printf("  %-12s %12s %12s  %s\n", "term", "max-impact", "cum-bound", "role")
		for i, ti := range plan.Terms {
			role := "non-essential"
			if i >= plan.Essential {
				role = "essential"
			}
			fmt.Printf("  %-12s %12.4f %12.4f  %s\n", ti.Term, ti.MaxImpact, ti.Prefix, role)
		}
		fmt.Printf("  %d essential / %d non-essential of %d lists\n",
			len(plan.Terms)-plan.Essential, plan.Essential, len(plan.Terms))
	}

	fmt.Printf("\n%-20s %12s %12s %12s %10s %10s %10s\n",
		"system", "latency", "qps@cores", "device B", "host B", "docs", "blocks")
	for _, o := range outcomes {
		lat := o.m.Latency(o.dev)
		qps := o.m.Throughput(*cores, o.dev, o.link)
		fmt.Printf("%-20s %10.1fus %12.0f %12d %10d %10d %10d\n",
			o.name, sim.Seconds(lat)*1e6, qps, o.m.DeviceBytes(), o.m.HostBytes,
			o.m.DocsEvaluated, o.m.BlocksFetched)
	}

	// Cross-check: the accelerators must agree with the engine.
	ref := outcomes[0].topk
	for _, o := range outcomes[1:] {
		if len(o.topk) != len(ref) {
			fmt.Printf("\nWARNING: %s returned %d results, engine %d\n", o.name, len(o.topk), len(ref))
		}
	}
	fmt.Printf("\nall systems returned %d results; engines verified against each other in tests\n", len(ref))
}
