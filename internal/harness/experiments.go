package harness

import (
	"fmt"

	"boss/internal/compress"
	"boss/internal/core"
	"boss/internal/corpus"
	"boss/internal/hw"
	"boss/internal/index"
	"boss/internal/mem"
	"boss/internal/query"
	"boss/internal/sim"
)

// fig3Schemes are the schemes Figure 3 plots (PFD is subsumed by OptPFD in
// the paper).
var fig3Schemes = []compress.Scheme{compress.BP, compress.VB, compress.OptPFD, compress.S16, compress.S8b}

// fig3StreamLen scales the paper's 10M-integer streams down.
const fig3StreamLen = 200_000

// Fig3 regenerates the compression-ratio comparison: seven synthetic
// streams plus the two corpora with per-list hybrid selection.
func Fig3(ctx *Context) []*Table {
	header := []string{"dataset"}
	for _, s := range fig3Schemes {
		header = append(header, s.String())
	}
	header = append(header, "Hybrid", "best")

	t := &Table{ID: "fig3", Title: "Compression ratio (higher is better)", Header: header}
	for _, kind := range corpus.AllStreamKinds() {
		stream := corpus.GenerateStream(kind, fig3StreamLen, ctx.Cfg.Seed)
		row := []string{kind.String()}
		best, bestRatio := "", 0.0
		var hybridSize int
		for _, s := range fig3Schemes {
			size, ok := blockEncodedSize(s, stream)
			if !ok {
				row = append(row, "n/a")
				continue
			}
			ratio := compress.CompressionRatio(len(stream), size)
			row = append(row, f2(ratio))
			if ratio > bestRatio {
				best, bestRatio = s.String(), ratio
			}
			if hybridSize == 0 || size < hybridSize {
				hybridSize = size
			}
		}
		row = append(row, f2(compress.CompressionRatio(len(stream), hybridSize)), best)
		t.Rows = append(t.Rows, row)
	}

	// Real-corpus rows: per-posting-list hybrid over docID delta streams.
	for _, setup := range []*Setup{ctx.ClueWeb(), ctx.CCNews()} {
		row := []string{setup.Spec.Name}
		var totals [len64]int64
		var hybridTotal, rawTotal int64
		for _, tp := range setup.Corpus.Terms {
			deltas := make([]uint32, len(tp.Postings))
			prev := uint32(0)
			for i, p := range tp.Postings {
				deltas[i] = p.DocID - prev
				prev = p.DocID
			}
			rawTotal += int64(4 * len(deltas))
			bestSize := int64(0)
			for si, s := range fig3Schemes {
				sz, ok := blockEncodedSize(s, deltas)
				if !ok {
					totals[si] = -1 // scheme unusable on this corpus
					continue
				}
				size := int64(sz)
				if totals[si] >= 0 {
					totals[si] += size
				}
				if bestSize == 0 || size < bestSize {
					bestSize = size
				}
			}
			hybridTotal += bestSize
		}
		best, bestRatio := "", 0.0
		for si := range fig3Schemes {
			if totals[si] < 0 {
				row = append(row, "n/a")
				continue
			}
			ratio := float64(rawTotal) / float64(totals[si])
			row = append(row, f2(ratio))
			if ratio > bestRatio {
				best, bestRatio = fig3Schemes[si].String(), ratio
			}
		}
		hybridRatio := float64(rawTotal) / float64(hybridTotal)
		if hybridRatio > bestRatio {
			best = "Hybrid"
		}
		row = append(row, f2(hybridRatio), best)
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper shape: the best scheme differs per dataset; hybrid matches or beats every single scheme on the corpora")
	return []*Table{t}
}

// len64 is the fig3 scheme count (fixed-size accumulator array).
const len64 = 5

// blockEncodedSize encodes values in 128-value blocks — how the index
// actually applies these codecs (PFD is inherently block-based) — and
// reports the total size, or ok=false if the scheme cannot represent the
// values.
func blockEncodedSize(s compress.Scheme, values []uint32) (int, bool) {
	c := compress.ForScheme(s)
	total := 0
	for start := 0; start < len(values); start += 128 {
		end := start + 128
		if end > len(values) {
			end = len(values)
		}
		blk := values[start:end]
		if !c.Supports(blk) {
			return 0, false
		}
		total += compress.EncodedSize(s, blk)
	}
	return total, true
}

// Table1 prints the hardware methodology constants.
func Table1(ctx *Context) []*Table {
	scm, dram, hscm, hdram := mem.SCM(), mem.DRAM(), mem.HostSCM(), mem.HostDRAM()
	t := &Table{
		ID:     "table1",
		Title:  "Hardware methodology",
		Header: []string{"component", "configuration"},
		Rows: [][]string{
			{"BOSS", "8 BOSS cores @ 1.0 GHz"},
			{"BOSS core", "1 block fetch, 4 decompression, 1 intersection, 1 union, 4 scoring, 1 top-k"},
			{"BOSS memory", fmt.Sprintf("SCM, %d channels, %.1f GB/s seq read, %.1f GB/s random, %.1f GB/s write",
				scm.Channels, scm.SeqReadGBs, scm.RandReadGBs, scm.WriteGBs)},
			{"pool DRAM (fig16)", fmt.Sprintf("DDR4-2666, %d channels, %.1f GB/s", dram.Channels, dram.SeqReadGBs)},
			{"host SCM", fmt.Sprintf("%d channels, %.1f GB/s seq read", hscm.Channels, hscm.SeqReadGBs)},
			{"host DRAM", fmt.Sprintf("DDR4-2666 ECC, %d channels, %.2f GB/s", hdram.Channels, hdram.SeqReadGBs)},
			{"host link", fmt.Sprintf("%.0f GB/s shared (CXL-like)", mem.DefaultLinkGBs)},
			{"top-k", fmt.Sprintf("k=%d (paper default %d)", ctx.Cfg.K, core.DefaultK)},
		},
	}
	return []*Table{t}
}

// Table2 prints the query-type workload definition.
func Table2(ctx *Context) []*Table {
	t := &Table{
		ID:     "table2",
		Title:  "Query types",
		Header: []string{"type", "#terms", "operation"},
	}
	for _, qt := range sortedQueryTypes() {
		t.Rows = append(t.Rows, []string{qt.String(), fmt.Sprint(qt.NumTerms()), qt.Operation()})
	}
	return []*Table{t}
}

// throughputTable builds the Figure 9/10 layout for one corpus.
func throughputTable(id string, s *Setup) *Table {
	header := []string{"query"}
	for _, sys := range []System{IIU, BOSS} {
		for _, c := range CoreCounts {
			header = append(header, fmt.Sprintf("%s-%dc", sys, c))
		}
	}
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("Query throughput on %s, normalized to Lucene with 8 cores", s.Spec.Name),
		Header: header,
	}
	perSys := map[System][]float64{}
	for _, qt := range sortedQueryTypes() {
		row := []string{qt.String()}
		for _, sys := range []System{IIU, BOSS} {
			for _, c := range CoreCounts {
				v := s.Speedup(sys, qt, c, "scm")
				row = append(row, f2(v))
				if c == 8 {
					perSys[sys] = append(perSys[sys], v)
				}
			}
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("geomean at 8 cores: IIU %.2fx, BOSS %.2fx (paper: ~1.7x and ~7.5-8.7x)",
		geomean(perSys[IIU]), geomean(perSys[BOSS])))
	return t
}

// Fig9 regenerates the ClueWeb multi-core throughput figure.
func Fig9(ctx *Context) []*Table { return []*Table{throughputTable("fig9", ctx.ClueWeb())} }

// Fig10 regenerates the CC-News multi-core throughput figure.
func Fig10(ctx *Context) []*Table { return []*Table{throughputTable("fig10", ctx.CCNews())} }

// bandwidthTable builds the Figure 11/12 layout.
func bandwidthTable(id string, s *Setup) *Table {
	header := []string{"query"}
	for _, sys := range []System{IIU, BOSS} {
		for _, c := range CoreCounts {
			header = append(header, fmt.Sprintf("%s-%dc", sys, c))
		}
	}
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("SCM bandwidth utilization on %s (GB/s)", s.Spec.Name),
		Header: header,
	}
	for _, qt := range sortedQueryTypes() {
		row := []string{qt.String()}
		for _, sys := range []System{IIU, BOSS} {
			for _, c := range CoreCounts {
				row = append(row, f2(s.Bandwidth(sys, qt, c)))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper shape: BOSS consumes less bandwidth than IIU at higher throughput; IIU saturates at fewer cores")
	return t
}

// Fig11 regenerates ClueWeb bandwidth utilization.
func Fig11(ctx *Context) []*Table { return []*Table{bandwidthTable("fig11", ctx.ClueWeb())} }

// Fig12 regenerates CC-News bandwidth utilization.
func Fig12(ctx *Context) []*Table { return []*Table{bandwidthTable("fig12", ctx.CCNews())} }

// Fig13 regenerates the single-core analysis including BOSS-exhaustive.
func Fig13(ctx *Context) []*Table {
	s := ctx.ClueWeb()
	t := &Table{
		ID:     "fig13",
		Title:  "Single-core throughput, normalized to Lucene with 1 core",
		Header: []string{"query", "Lucene", "IIU", "BOSS-exhaustive", "BOSS"},
	}
	for _, qt := range sortedQueryTypes() {
		base := s.QPS(Lucene, qt, 1, "scm")
		row := []string{qt.String()}
		for _, sys := range []System{Lucene, IIU, BOSSExh, BOSS} {
			row = append(row, f2(s.QPS(sys, qt, 1, "scm")/base))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper shape: ET gain over BOSS-exhaustive shrinks with more OR terms; intersection gain grows with more AND terms; IIU can beat BOSS-exhaustive on Q1 (intra-query parallelism)")
	return []*Table{t}
}

// Fig14 regenerates the evaluated-documents figure for union queries.
func Fig14(ctx *Context) []*Table {
	s := ctx.ClueWeb()
	t := &Table{
		ID:     "fig14",
		Title:  "Evaluated (scored) documents, normalized to IIU",
		Header: []string{"query", "IIU", "BOSS-block-only", "BOSS"},
	}
	for _, qt := range []corpus.QueryType{corpus.Q1, corpus.Q3, corpus.Q5} {
		base := float64(s.Avg(IIU, qt).DocsEvaluated)
		row := []string{qt.String(), "1.00"}
		for _, sys := range []System{BOSSBlock, BOSS} {
			row = append(row, f2(float64(s.Avg(sys, qt).DocsEvaluated)/base))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper shape: block-level skipping weakens as terms increase; WAND recovers the reduction")
	return []*Table{t}
}

// Fig15 regenerates the memory-access breakdown.
func Fig15(ctx *Context) []*Table {
	s := ctx.ClueWeb()
	header := []string{"query", "system"}
	for _, cat := range mem.Categories() {
		header = append(header, cat.String())
	}
	header = append(header, "total")
	t := &Table{
		ID:     "fig15",
		Title:  "Memory access count by category, normalized to IIU total per query type",
		Header: header,
	}
	for _, qt := range sortedQueryTypes() {
		iiuM := s.Avg(IIU, qt)
		var iiuTotal int64
		for _, cat := range mem.Categories() {
			iiuTotal += iiuM.CatAcc[cat]
		}
		if iiuTotal == 0 {
			iiuTotal = 1
		}
		for _, sys := range []System{IIU, BOSS} {
			m := s.Avg(sys, qt)
			row := []string{qt.String(), string(sys)}
			var total int64
			for _, cat := range mem.Categories() {
				row = append(row, f2(float64(m.CatAcc[cat])/float64(iiuTotal)))
				total += m.CatAcc[cat]
			}
			row = append(row, f2(float64(total)/float64(iiuTotal)))
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: BOSS eliminates LD/ST Inter and shrinks ST Result to k entries; LD List and LD Score drop via skipping")
	return []*Table{t}
}

// Fig16 regenerates the DRAM-vs-SCM comparison.
func Fig16(ctx *Context) []*Table {
	s := ctx.ClueWeb()
	t := &Table{
		ID:     "fig16",
		Title:  "8-core throughput on DRAM vs SCM, normalized to Lucene-SCM with 8 cores",
		Header: []string{"query", "Lucene-DRAM", "IIU-SCM", "IIU-DRAM", "BOSS-SCM", "BOSS-DRAM"},
	}
	var iiuGain, bossGain, lucGain []float64
	for _, qt := range sortedQueryTypes() {
		row := []string{qt.String()}
		lDram := s.Speedup(Lucene, qt, 8, "dram")
		row = append(row, f2(lDram))
		lucGain = append(lucGain, lDram)
		for _, sys := range []System{IIU, BOSS} {
			scm := s.Speedup(sys, qt, 8, "scm")
			dram := s.Speedup(sys, qt, 8, "dram")
			row = append(row, f2(scm), f2(dram))
			if scm > 0 {
				if sys == IIU {
					iiuGain = append(iiuGain, dram/scm)
				} else {
					bossGain = append(bossGain, dram/scm)
				}
			}
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("DRAM gain: Lucene %.2fx, IIU %.2fx, BOSS %.2fx (paper: <=1.15x, 3.29x, 2.31x)",
			geomean(lucGain), geomean(iiuGain), geomean(bossGain)))
	return []*Table{t}
}

// Table3 prints the area/power database.
func Table3(ctx *Context) []*Table {
	t := &Table{
		ID:     "table3",
		Title:  "Area and power of BOSS (TSMC 40nm, from the paper's synthesis)",
		Header: []string{"component", "count", "area (mm^2)", "power (mW)"},
	}
	for _, c := range hw.CoreComponents() {
		t.Rows = append(t.Rows, []string{c.Name, fmt.Sprint(c.Count), fmt.Sprintf("%.3f", c.AreaMM2), f2(c.PowerMW)})
	}
	t.Rows = append(t.Rows, []string{"BOSS core total", "1", fmt.Sprintf("%.3f", hw.CoreArea()), f1(hw.CorePower())})
	for _, c := range hw.PeripheralComponents() {
		t.Rows = append(t.Rows, []string{c.Name, fmt.Sprint(c.Count), fmt.Sprintf("%.3f", c.AreaMM2), fmt.Sprintf("%.3f", c.PowerMW)})
	}
	t.Rows = append(t.Rows, []string{"BOSS device (8 cores)", "", f2(hw.DeviceArea(8)), f1(hw.DevicePower(8))})
	t.Notes = append(t.Notes, fmt.Sprintf("CPU package power for Lucene: %.1f W; BOSS power advantage %.1fx",
		hw.CPUPackagePowerW, hw.CPUPackagePowerW/(hw.DevicePower(8)/1000)))
	return []*Table{t}
}

// Fig17 regenerates the energy comparison.
func Fig17(ctx *Context) []*Table {
	s := ctx.ClueWeb()
	t := &Table{
		ID:     "fig17",
		Title:  "Energy per query: Lucene / BOSS ratio (8 cores each)",
		Header: []string{"query", "Lucene (mJ)", "BOSS (mJ)", "ratio"},
	}
	var ratios []float64
	for _, qt := range sortedQueryTypes() {
		lQPS := s.QPS(Lucene, qt, 8, "scm")
		bQPS := s.QPS(BOSS, qt, 8, "scm")
		if lQPS == 0 || bQPS == 0 {
			continue
		}
		lE := hw.LuceneEnergyJ(sim.FromSeconds(1/lQPS)) * 1000
		bE := hw.BOSSEnergyJ(8, sim.FromSeconds(1/bQPS)) * 1000
		ratio := lE / bE
		ratios = append(ratios, ratio)
		t.Rows = append(t.Rows, []string{qt.String(), fmt.Sprintf("%.3f", lE), fmt.Sprintf("%.4f", bE), f1(ratio)})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("geomean energy reduction %.0fx (paper: 189x average)", geomean(ratios)))
	return []*Table{t}
}

// Headline reports the paper's summary numbers across both corpora.
func Headline(ctx *Context) []*Table {
	t := &Table{
		ID:     "headline",
		Title:  "Summary: BOSS vs Lucene-8core",
		Header: []string{"corpus", "geomean speedup (8c)", "IIU geomean (8c)"},
	}
	var all []float64
	for _, s := range []*Setup{ctx.ClueWeb(), ctx.CCNews()} {
		var boss, iiuV []float64
		for _, qt := range sortedQueryTypes() {
			boss = append(boss, s.Speedup(BOSS, qt, 8, "scm"))
			iiuV = append(iiuV, s.Speedup(IIU, qt, 8, "scm"))
		}
		all = append(all, boss...)
		t.Rows = append(t.Rows, []string{s.Spec.Name, f2(geomean(boss)), f2(geomean(iiuV))})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("overall geomean speedup %.2fx (paper: 8.1x)", geomean(all)))
	return []*Table{t}
}

// AblationET sweeps both ET switches independently.
func AblationET(ctx *Context) []*Table {
	s := ctx.ClueWeb()
	variants := []struct {
		name string
		opts core.Options
	}{
		{"none (exhaustive)", core.ExhaustiveOptions()},
		{"block only", core.BlockOnlyOptions()},
		{"doc only (WAND)", core.Options{DocET: true}},
		{"both (BOSS)", core.DefaultOptions()},
	}
	t := &Table{
		ID:     "ablation-et",
		Title:  "ET ablation on union queries: evaluated docs / fetched blocks / device bytes (normalized to exhaustive)",
		Header: []string{"query", "variant", "docs", "blocks", "bytes"},
	}
	for _, qt := range []corpus.QueryType{corpus.Q1, corpus.Q3, corpus.Q5} {
		var baseDocs, baseBlocks, baseBytes float64
		for vi, v := range variants {
			sum := newZeroMetrics()
			for _, q := range s.Workload[qt] {
				res, err := core.New(s.Hybrid, v.opts).Exec(nil, query.MustParse(q.Expr).Plan(), s.Cfg.K)
				if err != nil {
					panic(err)
				}
				sum.docs += float64(res.M.DocsEvaluated)
				sum.blocks += float64(res.M.BlocksFetched)
				sum.bytes += float64(res.M.DeviceBytes())
			}
			if vi == 0 {
				baseDocs, baseBlocks, baseBytes = sum.docs, sum.blocks, sum.bytes
			}
			t.Rows = append(t.Rows, []string{
				qt.String(), v.name,
				f2(sum.docs / baseDocs), f2(sum.blocks / baseBlocks), f2(sum.bytes / baseBytes),
			})
		}
	}
	return []*Table{t}
}

type zeroMetrics struct{ docs, blocks, bytes float64 }

func newZeroMetrics() *zeroMetrics { return &zeroMetrics{} }

// AblationPipeline compares pipelined multi-term intersection against the
// spill-to-memory alternative.
func AblationPipeline(ctx *Context) []*Table {
	s := ctx.ClueWeb()
	t := &Table{
		ID:     "ablation-pipeline",
		Title:  "Multi-term intersection: pipelined vs spilled intermediates (Q4)",
		Header: []string{"variant", "device bytes", "Inter bytes", "latency (us)", "8c QPS"},
	}
	// Q4 queries over common terms, so the conjunction passes carry
	// non-trivial intermediate lists.
	exprs := []string{
		`"t0" AND "t1" AND "t2" AND "t3"`,
		`"t0" AND "t2" AND "t4" AND "t6"`,
		`"t1" AND "t3" AND "t5" AND "t7"`,
	}
	for _, v := range []struct {
		name  string
		spill bool
	}{{"pipelined (BOSS)", false}, {"spilled (IIU-style)", true}} {
		var bytes, inter, qps float64
		var lat sim.Duration
		opts := core.DefaultOptions()
		opts.SpillIntermediates = v.spill
		n := 0
		for _, expr := range exprs {
			res, err := core.New(s.Hybrid, opts).Exec(nil, query.MustParse(expr).Plan(), s.Cfg.K)
			if err != nil {
				panic(err)
			}
			bytes += float64(res.M.DeviceBytes())
			inter += float64(res.M.Cat[mem.CatStoreInter] + res.M.Cat[mem.CatLoadInter])
			lat += res.M.Latency(mem.SCM())
			qps += res.M.Throughput(8, mem.SCM(), mem.DefaultLinkGBs)
			n++
		}
		t.Rows = append(t.Rows, []string{
			v.name,
			fmt.Sprintf("%.0f", bytes/float64(n)),
			fmt.Sprintf("%.0f", inter/float64(n)),
			f2(sim.Seconds(lat/sim.Duration(n)) * 1e6),
			fmt.Sprintf("%.0f", qps/float64(n)),
		})
	}
	return []*Table{t}
}

// AblationTopK compares hardware top-k against host-side selection on the
// shared interconnect.
func AblationTopK(ctx *Context) []*Table {
	s := ctx.ClueWeb()
	t := &Table{
		ID:     "ablation-topk",
		Title:  "Top-k placement: host-interconnect bytes per query and pool scalability (Q5)",
		Header: []string{"variant", "host bytes", "max nodes before link saturates"},
	}
	for _, v := range []struct {
		name string
		host bool
	}{{"hardware top-k (BOSS)", false}, {"host-side top-k", true}} {
		opts := core.DefaultOptions()
		opts.HostTopK = v.host
		var hostBytes float64
		var qps float64
		n := 0
		for _, q := range s.Workload[corpus.Q5] {
			res, err := core.New(s.Hybrid, opts).Exec(nil, query.MustParse(q.Expr).Plan(), s.Cfg.K)
			if err != nil {
				panic(err)
			}
			hostBytes += float64(res.M.HostBytes)
			qps = res.M.Throughput(8, mem.SCM(), 0) // node-local ceiling, no link
			n++
		}
		avgHost := hostBytes / float64(n)
		// Each node at full throughput pushes qps*avgHost bytes/s into the
		// shared link; the link supports this many nodes.
		nodes := mem.DefaultLinkGBs * 1e9 / (qps * avgHost)
		t.Rows = append(t.Rows, []string{v.name, fmt.Sprintf("%.0f", avgHost), f1(nodes)})
	}
	t.Notes = append(t.Notes, "hardware top-k lets the pool scale out by orders of magnitude more nodes per link")
	return []*Table{t}
}

// AblationHybrid compares hybrid compression against each single scheme
// end to end.
func AblationHybrid(ctx *Context) []*Table {
	s := ctx.ClueWeb()
	t := &Table{
		ID:     "ablation-hybrid",
		Title:  "Compression scheme vs index size and BOSS Q3 throughput",
		Header: []string{"scheme", "payload bytes", "ratio", "Q3 QPS (8c, normalized to hybrid)"},
	}
	run := func(idx *index.Index) float64 {
		sum := 0.0
		n := 0
		for _, q := range s.Workload[corpus.Q3] {
			res, err := core.New(idx, core.DefaultOptions()).Exec(nil, query.MustParse(q.Expr).Plan(), s.Cfg.K)
			if err != nil {
				panic(err)
			}
			sum += res.M.Throughput(8, mem.SCM(), mem.DefaultLinkGBs)
			n++
		}
		return sum / float64(n)
	}
	hybridStats := s.Hybrid.ComputeStats()
	hybridQPS := run(s.Hybrid)
	t.Rows = append(t.Rows, []string{"Hybrid", fmt.Sprint(hybridStats.PayloadBytes), f2(hybridStats.CompressionRatio()), "1.00"})
	for _, sc := range []compress.Scheme{compress.BP, compress.VB, compress.OptPFD, compress.S8b} {
		idx := index.Build(s.Corpus, index.BuildOptions{Scheme: sc})
		st := idx.ComputeStats()
		t.Rows = append(t.Rows, []string{
			sc.String(), fmt.Sprint(st.PayloadBytes), f2(st.CompressionRatio()), f2(run(idx) / hybridQPS),
		})
	}
	return []*Table{t}
}
