package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"time"

	"boss/internal/cache"
	"boss/internal/compress"
	"boss/internal/core"
	"boss/internal/corpus"
	"boss/internal/decomp"
	"boss/internal/docstore"
	"boss/internal/index"
	"boss/internal/perf"
	"boss/internal/pool"
	"boss/internal/query"
	"boss/internal/topk"
)

// kernelReps is how many passes each kernel replay makes; the reported
// time is the median pass.
const kernelReps = 3

// perItemNs times reps passes of fn over n items and returns the median
// pass's nanoseconds per item.
func perItemNs(n int, fn func()) float64 {
	if n == 0 {
		return 0
	}
	passes := make([]float64, kernelReps)
	for i := range passes {
		start := time.Now()
		fn()
		passes[i] = float64(time.Since(start)) / float64(n)
	}
	return median(passes)
}

// blockRef names one posting block of the monolithic index.
type blockRef struct {
	pl *index.PostingList
	b  int
}

// sampleBlocks returns the posting lists the sample queries touch and up
// to kernelBlocks of their blocks, in a deterministic order.
func sampleBlocks(mono *index.Index, sample []*queryInfo) ([]*index.PostingList, []blockRef) {
	seen := make(map[string]bool)
	var lists []*index.PostingList
	var blocks []blockRef
	for _, q := range sample {
		for _, term := range q.node.Terms() {
			if seen[term] {
				continue
			}
			seen[term] = true
			pl := mono.List(term)
			if pl == nil {
				continue
			}
			lists = append(lists, pl)
			for b := range pl.Blocks {
				if len(blocks) < kernelBlocks {
					blocks = append(blocks, blockRef{pl, b})
				}
			}
		}
	}
	return lists, blocks
}

// kernelTimes is what the kernel replays measured, kept for the budget.
type kernelTimes struct {
	parseNs, verifyNs, decompNs, publishNs, getNs, scoreNs float64
	insertNs                                               map[int]float64 // by k
	counters                                               perf.Metrics    // exact, summed over the sample
	coreP50Us                                              float64
	hitLists                                               [][]uint32 // the sample's hits, for the fetch kernels
}

// tracedLayers fills in the traced run's layer metrics: what the linked
// spans say about the front door, and the kernel replays — timed calls
// into each layer's public functions over a fixed stream sample.
func tracedLayers(w *workloadReport, sp spec, cfg runConfig, r *runner, c *corpus.Corpus, mono *index.Index) error {
	sample := r.stream[:min(kernelSample, len(r.stream))]
	tb, err := spanLayers(w, sp, cfg, r)
	if err != nil {
		return err
	}
	var kt kernelTimes
	kt.parseNs = perItemNs(len(sample), func() {
		for _, q := range sample {
			n, err := query.Parse(q.expr)
			if err != nil {
				panic(err) // the stream already parsed once
			}
			_ = n.Canonical()
		}
	})
	w.add("query.parse_canon_us", "us", kt.parseNs/1e3)
	if err := coreKernels(w, sp, r, mono, sample, &kt); err != nil {
		return err
	}
	lists, blocks := sampleBlocks(mono, sample)
	if err := blockKernels(w, mono, lists, blocks, &kt); err != nil {
		return err
	}
	w.add("index.bytes_per_posting", "bytes", float64(mono.TotalBytes)/float64(c.TotalPostings))
	start := time.Now()
	var file bytes.Buffer
	if _, err := mono.WriteTo(&file); err != nil {
		return fmt.Errorf("index write: %w", err)
	}
	if _, err := index.Read(&file); err != nil {
		return fmt.Errorf("index read: %w", err)
	}
	w.add("index.write_read_s", "s", time.Since(start).Seconds())
	if err := cacheKernels(w, &kt); err != nil {
		return err
	}
	scoreKernels(w, mono, blocks, &kt)

	// budget: front self time + kernel time x exact per-op counts.
	if !sp.sparse && tb.requestNs > 0 {
		n := float64(len(sample))
		hit, _ := w.get("cache.posting_hit_rate")
		perBlock := hit.Value*kt.getNs + (1-hit.Value)*(kt.verifyNs+kt.decompNs+kt.publishNs)
		terms := 0
		for _, q := range sample {
			terms += len(q.node.Terms())
		}
		perDoc := kt.scoreNs*float64(terms)/n + kt.insertNs[sp.k]
		kernelNs := kt.parseNs + perBlock*float64(kt.counters.BlocksFetched)/n + perDoc*float64(kt.counters.DocsEvaluated)/n
		w.add("bench.kernel_ns_per_op", "ns", kernelNs)
		w.add("bench.budget_explained_frac", "ratio", (tb.selfNs+kernelNs)/tb.requestNs)
	}

	if cd, ok := r.dep.(*clusterDeploy); ok {
		if err := poolLayers(w, r.ctx, cd.cl, c, sample, kt.coreP50Us); err != nil {
			return err
		}
	}
	if sp.fetch {
		return docstoreLayers(w, r.ctx, c, kt.hitLists)
	}
	return nil
}

// spanLayers links the recorded spans, writes the trace file and reports
// what the spans say about the front door. The facade constructs
// sparse-q7's backend itself, so that workload has no backend.batch spans
// and only its Submit time is reported.
func spanLayers(w *workloadReport, sp spec, cfg runConfig, r *runner) (traceBudget, error) {
	canonOf := make(map[string]string, len(r.stream))
	for _, q := range r.stream {
		canonOf[q.expr] = q.canon
	}
	matched, requests := link(r.rec.spans, func(key string) string {
		if cn, ok := canonOf[key]; ok {
			return cn
		}
		return key
	})
	tb := budget(r.rec.spans)
	path, err := writeTrace(cfg.outDir, sp.name, cfg.seed, r.rec)
	if err != nil {
		return tb, err
	}
	w.TraceFile = path
	w.add("front.submit_us", "us", tb.submitNs/1e3)
	if sp.sparse {
		return tb, nil
	}
	w.add("front.wait_ms", "ms", tb.selfNs/1e6)
	w.add("pool.batch_us_per_query", "us", tb.perQuery/1e3)
	share := float64(matched) / float64(max(requests, 1))
	w.add("trace.linked_frac", "ratio", share)
	w.check("trace links", share >= 0.95,
		"%d of %d request spans found their backend.batch; front self %.0f us + child cover %.0f us = request %.0f us",
		matched, requests, tb.selfNs/1e3, (tb.requestNs-tb.selfNs)/1e3, tb.requestNs/1e3)
	return tb, nil
}

// coreKernels replays the sample on core.Accelerator over the monolithic
// index: one pass warms the cache and sums the exact counters, a second is
// timed.
func coreKernels(w *workloadReport, sp spec, r *runner, mono *index.Index, sample []*queryInfo, kt *kernelTimes) error {
	acc := core.NewCached(mono, core.DefaultOptions(), cache.New(pool.DefaultCacheBytes))
	run := func(q *queryInfo) (core.Result, error) {
		if sp.sparse {
			return acc.RunSparseCtx(r.ctx, q.node.Terms(), q.k)
		}
		return acc.RunCtx(r.ctx, q.node, q.k)
	}
	for _, q := range sample {
		res, err := run(q)
		if err != nil {
			return fmt.Errorf("core replay %q: %w", q.expr, err)
		}
		kt.counters.Merge(res.M)
		kt.hitLists = append(kt.hitLists, hitIDs(res.TopK))
	}
	p50, _, err := timeCalls(sample, func(q *queryInfo) error {
		_, err := run(q)
		return err
	})
	if err != nil {
		return fmt.Errorf("core replay %w", err)
	}
	kt.coreP50Us = p50
	n := float64(len(sample))
	w.add("core.run_us", "us", p50)
	if sp.sparse {
		w.add("core.sparse_run_us", "us", p50)
	}
	fetched, skipped := float64(kt.counters.BlocksFetched), float64(kt.counters.BlocksSkipped)
	w.add("core.blocks_fetched_per_op", "count", fetched/n)
	w.add("core.blocks_skipped_per_op", "count", skipped/n)
	w.add("core.skip_frac", "ratio", skipped/max(fetched+skipped, 1))
	w.add("core.docs_evaluated_per_op", "count", float64(kt.counters.DocsEvaluated)/n)
	w.add("core.postings_decoded_per_op", "count", float64(kt.counters.PostingsDecoded)/n)
	return nil
}

// blockKernels times index, decomp and compress on the blocks of the
// sample's terms.
func blockKernels(w *workloadReport, mono *index.Index, lists []*index.PostingList, blocks []blockRef, kt *kernelTimes) error {
	nb := len(blocks)
	kt.verifyNs = perItemNs(nb, func() {
		for _, br := range blocks {
			if !br.pl.VerifyBlock(br.b) {
				panic("bench: block fails its checksum")
			}
		}
	})
	w.add("index.verify_block_ns", "ns", kt.verifyNs)
	var docs, tfs []uint32
	w.add("index.decode_block_ns", "ns", perItemNs(nb, func() {
		for _, br := range blocks {
			docs, tfs = mono.DecodeBlock(br.pl, br.b, docs[:0], tfs[:0])
		}
	}))
	postings := 0
	cursorLists := lists
	for i, pl := range lists { // bound the cursor scan like the block kernels
		postings += pl.DF
		if postings >= kernelBlocks*index.DefaultBlockSize {
			cursorLists = lists[:i+1]
			break
		}
	}
	w.add("index.cursor_ns_per_posting", "ns", perItemNs(postings, func() {
		for _, pl := range cursorLists {
			cur := index.NewCursor(mono, pl)
			for cur.Valid() {
				cur.Next()
			}
			cur.Release()
		}
	}))
	mods := make(map[compress.Scheme]*decomp.Module)
	var cycles int64
	var decodeErr error
	kt.decompNs = perItemNs(nb, func() {
		cycles = 0
		for _, br := range blocks {
			mod := mods[br.pl.Scheme]
			if mod == nil {
				mod = decomp.NewModuleFor(br.pl.Scheme)
				mods[br.pl.Scheme] = mod
			}
			meta := br.pl.Blocks[br.b]
			payload := br.pl.Data[meta.Offset : meta.Offset+meta.Length]
			cnt := int(meta.Count)
			d, used, c1, err := mod.DecodeInto(docs[:0], payload, cnt, meta.FirstDoc, true)
			if err != nil {
				decodeErr = err
				return
			}
			t, _, c2, err := mod.DecodeInto(tfs[:0], payload[used:], cnt, 0, false)
			if err != nil {
				decodeErr = err
				return
			}
			docs, tfs = d, t
			cycles += int64(c1 + c2)
		}
	})
	if decodeErr != nil {
		return fmt.Errorf("decomp replay: %w", decodeErr)
	}
	w.add("decomp.decode_ns_per_block", "ns", kt.decompNs)
	w.add("decomp.cycles_per_block", "count", float64(cycles)/float64(max(nb, 1)))
	w.add("compress.decode_ns_per_block", "ns", perItemNs(nb, func() {
		for _, br := range blocks {
			meta := br.pl.Blocks[br.b]
			payload := br.pl.Data[meta.Offset : meta.Offset+meta.Length]
			codec := br.pl.Codec()
			var used int
			docs, used = codec.Decode(docs[:0], payload, int(meta.Count))
			tfs, _ = codec.Decode(tfs[:0], payload[used:], int(meta.Count))
		}
	}))
	return nil
}

// cacheKernels times publishing and then hitting block-sized entries.
func cacheKernels(w *workloadReport, kt *kernelTimes) error {
	passes, gets := make([]float64, kernelReps), make([]float64, kernelReps)
	for p := range passes {
		ch := cache.New(256 << 20) // holds every entry: no evictions in the kernel
		passes[p] = cachePublishNs(ch)
		var err error
		if gets[p], err = cacheGetHitNs(ch); err != nil {
			return err
		}
	}
	kt.publishNs, kt.getNs = median(passes), median(gets)
	w.add("cache.publish_ns", "ns", kt.publishNs)
	w.add("cache.get_hit_ns", "ns", kt.getNs)
	return nil
}

// scoreKernels replays the sample blocks' postings through the BM25 term
// scorer and the top-k queue at both depths the workloads use.
func scoreKernels(w *workloadReport, mono *index.Index, blocks []blockRef, kt *kernelTimes) {
	type cand struct {
		doc, tf uint32
		idf     float64
	}
	var cands []cand
	var docs, tfs []uint32
	for _, br := range blocks {
		if len(cands) >= 200000 {
			break
		}
		docs, tfs = mono.DecodeBlock(br.pl, br.b, docs[:0], tfs[:0])
		for i := range docs {
			cands = append(cands, cand{docs[i], tfs[i], br.pl.IDF})
		}
	}
	scores := make([]float64, len(cands))
	kt.scoreNs = perItemNs(len(cands), func() {
		for i, cd := range cands {
			scores[i] = mono.Params.TermScore(cd.idf, cd.tf, mono.DocNorms[cd.doc])
		}
	})
	w.add("score.term_score_ns", "ns", kt.scoreNs)
	kt.insertNs = map[int]float64{}
	for _, k := range []int{10, 100} {
		q := topk.NewShiftRegister(k)
		kt.insertNs[k] = perItemNs(len(cands), func() {
			for i, cd := range cands {
				if i%4096 == 0 { // a fresh queue per replayed "query"
					q.Reset(k)
				}
				q.Insert(cd.doc, scores[i])
			}
		})
		w.add(fmt.Sprintf("topk.insert_ns_k%d", k), "ns", kt.insertNs[k])
	}
}

// cacheEntries is how many block-sized entries the cache kernels publish
// and then hit.
const cacheEntries = 20000

func cacheKernelKey(i int) cache.Key { return cache.Key{List: 1 << 40, Block: uint32(i)} }

// cachePublishNs times Reserve+Publish+Release of cacheEntries entries.
func cachePublishNs(ch *cache.Cache) float64 {
	const n = index.DefaultBlockSize
	start := time.Now()
	for i := 0; i < cacheEntries; i++ {
		e := ch.Reserve(n)
		e = ch.Publish(cacheKernelKey(i), e, e.DocsBuf(n)[:n], e.TfsBuf(n)[:n], 0)
		ch.Release(e)
	}
	return float64(time.Since(start)) / cacheEntries
}

// cacheGetHitNs times Get+Release of the entries cachePublishNs left.
func cacheGetHitNs(ch *cache.Cache) (float64, error) {
	start := time.Now()
	for i := 0; i < cacheEntries; i++ {
		e := ch.Get(cacheKernelKey(i))
		if e == nil {
			return 0, fmt.Errorf("cache kernel: published entry %d missing", i)
		}
		ch.Release(e)
	}
	return float64(time.Since(start)) / cacheEntries, nil
}

// timeCalls runs fn over the sample and returns the per-call p50 (us) and
// the total wall time.
func timeCalls(sample []*queryInfo, fn func(q *queryInfo) error) (p50Us float64, total time.Duration, err error) {
	lat := make([]float64, 0, len(sample))
	begin := time.Now()
	for _, q := range sample {
		start := time.Now()
		if err := fn(q); err != nil {
			return 0, 0, fmt.Errorf("%q: %w", q.expr, err)
		}
		lat = append(lat, float64(time.Since(start))/1e3)
	}
	return median(lat), time.Since(begin), nil
}

// poolLayers times the cluster's public entry points against each other
// and against the core engine on the same index.
func poolLayers(w *workloadReport, ctx context.Context, cl *pool.Cluster, c *corpus.Corpus, sample []*queryInfo, coreP50 float64) error {
	one, err := pool.NewCluster(pool.DefaultConfig(), c, 1)
	if err != nil {
		return fmt.Errorf("one-shard cluster: %w", err)
	}
	search := func(cl *pool.Cluster, call func(cl *pool.Cluster, q *queryInfo) error) (float64, time.Duration, error) {
		// First pass warms the cache, second is timed.
		if _, _, err := timeCalls(sample, func(q *queryInfo) error { return call(cl, q) }); err != nil {
			return 0, 0, err
		}
		return timeCalls(sample, func(q *queryInfo) error { return call(cl, q) })
	}
	ctxCall := func(cl *pool.Cluster, q *queryInfo) error {
		_, err := cl.SearchCtx(ctx, q.expr, q.k)
		return err
	}
	oneP50, _, err := search(one, ctxCall)
	if err != nil {
		return err
	}
	w.add("pool.overhead_us", "us", oneP50-coreP50)
	_, serial, err := search(cl, func(cl *pool.Cluster, q *queryInfo) error {
		_, err := cl.SearchSerial(q.expr, q.k)
		return err
	})
	if err != nil {
		return err
	}
	_, fanout, err := search(cl, func(cl *pool.Cluster, q *queryInfo) error {
		_, err := cl.Search(q.expr, q.k)
		return err
	})
	if err != nil {
		return err
	}
	_, resilient, err := search(cl, ctxCall)
	if err != nil {
		return err
	}
	w.add("pool.fanout_speedup", "ratio", float64(serial)/float64(fanout))
	w.add("pool.resilient_overhead_frac", "ratio", float64(resilient)/float64(fanout)-1)
	return nil
}

// docstoreLayers builds a monolithic document store the way the
// deployments do and times its public functions on the blocks the
// sample's hits live in.
func docstoreLayers(w *workloadReport, ctx context.Context, c *corpus.Corpus, hitLists [][]uint32) error {
	start := time.Now()
	db := docstore.NewBuilder("name", "text")
	var name, text []byte
	for id := 0; id < c.Spec.NumDocs; id++ {
		name = corpus.DocName(name[:0], uint32(id))
		text = corpus.DocText(c.Spec.Seed, uint32(id), c.DocLens[id], c.Spec.NumTerms, text[:0])
		if err := db.Add(name, text); err != nil {
			return fmt.Errorf("docstore build: %w", err)
		}
	}
	ds := db.Build()
	w.add("docstore.build_s", "s", time.Since(start).Seconds())
	w.add("docstore.stored_per_raw_byte", "ratio", float64(len(ds.Data))/float64(ds.RawBytes))

	blockSet := make(map[int]bool)
	var ids []uint32
	for _, l := range hitLists {
		for _, id := range l {
			blockSet[ds.BlockOf(id)] = true
			ids = append(ids, id)
		}
	}
	blocks := make([]int, 0, len(blockSet))
	for b := range blockSet {
		blocks = append(blocks, b)
	}
	sort.Ints(blocks)
	raw := make([]byte, ds.MaxRawLen())
	var decodeErr error
	w.add("docstore.decode_block_us", "us", perItemNs(len(blocks), func() {
		for _, b := range blocks {
			if err := ds.DecodeBlock(raw[:ds.Blocks[b].RawLen], ds.BlockPayload(b)); err != nil {
				decodeErr = err
			}
		}
	})/1e3)
	if decodeErr != nil {
		return fmt.Errorf("docstore decode: %w", decodeErr)
	}
	var fields [][]byte
	if len(blocks) > 0 {
		b := blocks[0]
		if err := ds.DecodeBlock(raw[:ds.Blocks[b].RawLen], ds.BlockPayload(b)); err != nil {
			return fmt.Errorf("docstore decode: %w", err)
		}
		blk := raw[:ds.Blocks[b].RawLen]
		const appends = 64 * 200
		w.add("docstore.append_doc_ns", "ns", perItemNs(appends, func() {
			for i := 0; i < appends; i++ {
				fields, _ = ds.AppendDoc(fields[:0], blk, i%docstore.BlockDocs)
			}
		}))
	}

	// The fetch engine over a cold cache, then warm: one document per call.
	eng := core.NewFetchEngine(ds, cache.New(pool.DefaultCacheBytes))
	var buf core.DocBuf
	defer buf.Release()
	m := perf.NewMetrics()
	fetchAll := func() (int64, error) {
		var payload int64
		for _, id := range ids {
			if err := eng.FetchInto(ctx, id, m, &buf); err != nil {
				return 0, err
			}
			for _, f := range buf.Fields {
				payload += int64(len(f))
			}
		}
		return payload, nil
	}
	cpu0 := cpuMicros()
	payload, err := fetchAll()
	if err != nil {
		return fmt.Errorf("fetch replay: %w", err)
	}
	if cpu := cpuMicros() - cpu0; cpu > 0 {
		w.add("docstore.returned_mb_per_cpu_s", "MB/s", float64(payload)/cpu) // bytes/us = MB/s
	}
	var fetchErr error
	w.add("core.fetch_doc_us", "us", perItemNs(len(ids), func() {
		if _, err := fetchAll(); err != nil {
			fetchErr = err
		}
	})/1e3)
	if fetchErr != nil {
		return fmt.Errorf("fetch replay: %w", fetchErr)
	}
	return nil
}
