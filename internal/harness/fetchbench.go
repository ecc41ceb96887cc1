package harness

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"boss/internal/cache"
	"boss/internal/core"
	"boss/internal/corpus"
	"boss/internal/docstore"
	"boss/internal/mem"
	"boss/internal/perf"
	"boss/internal/pool"
)

// fetchZipfS is the skew of the re-fetch trace: head-heavy enough that a
// decoded-block cache pays (the serving claim under test), without being
// degenerate single-document traffic.
const fetchZipfS = 1.2

// fetchTraceLen is the sampled trace length. With 64-document blocks a
// few thousand Zipfian draws revisit the head blocks many times over.
const fetchTraceLen = 4096

// FetchReport is the -fetch benchmark: host-side decode throughput of
// the document fetch phase, cold (every fetch decodes its block) versus
// cached (repeats pin the already-decoded block), plus end-to-end
// search+fetch throughput on the sharded cluster. The Sim* fields are
// simulated-device charges and are deterministic in (corpus, seed):
// the replay invariant makes them identical with the cache on or off,
// so two runs of the same binary must report the same values.
type FetchReport struct {
	Schema     string `json:"schema"`
	PR         int    `json:"pr"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Corpus     string `json:"corpus"`
	NumDocs    int    `json:"num_docs"`
	Shards     int    `json:"shards"`
	Seed       int64  `json:"seed"`
	// ZipfS is the document-popularity exponent of the re-fetch trace.
	ZipfS float64 `json:"zipf_s"`
	// Trace is the number of fetches per measured pass.
	Trace int `json:"trace"`
	// ColdGBs is decoded payload throughput with no host cache: every
	// fetch CRC-checks and decompresses its block.
	ColdGBs float64 `json:"cold_gbs"`
	// CachedGBs is the same trace against a warm decoded-block cache:
	// block repeats serve zero-copy from the pinned cache entry.
	CachedGBs float64 `json:"cached_gbs"`
	// CacheSpeedup is CachedGBs / ColdGBs.
	CacheSpeedup float64 `json:"cache_speedup"`
	// DocHitRate and PostingHitRate split the shared cache's hit rates
	// by client class over the cached pass; doc traffic must not perturb
	// the posting class.
	DocHitRate     float64 `json:"doc_hit_rate"`
	PostingHitRate float64 `json:"posting_hit_rate"`
	// SimDocsFetched / SimDocBlocksFetched / SimLoadDocBytes are the
	// simulated charges of one trace pass (deterministic; cache-independent).
	SimDocsFetched      int64 `json:"sim_docs_fetched"`
	SimDocBlocksFetched int64 `json:"sim_doc_blocks_fetched"`
	SimLoadDocBytes     int64 `json:"sim_load_doc_bytes"`
	// Points is the end-to-end sweep: cluster QPS for search alone and
	// search+fetch at each top-k depth.
	Points  []FetchPoint `json:"points"`
	Created string       `json:"created,omitempty"`
}

// FetchPoint is one end-to-end operating point.
type FetchPoint struct {
	// K is the top-k depth (every hit's document is fetched).
	K int `json:"k"`
	// SearchQPS is batch search throughput without the fetch phase.
	SearchQPS float64 `json:"search_qps"`
	// SearchFetchQPS is the same batch with every hit's payload fetched.
	SearchFetchQPS float64 `json:"search_fetch_qps"`
	// FetchCostPct is the relative throughput cost of the fetch phase.
	FetchCostPct float64 `json:"fetch_cost_pct"`
}

// fetchKs are the sweep's top-k depths.
var fetchKs = []int{10, 100}

// buildFetchStore packs the synthetic corpus's documents the same way
// the cluster's lazy docstore synthesis does (global docID order).
func buildFetchStore(c *corpus.Corpus) *docstore.Store {
	b := docstore.NewBuilder("name", "text")
	var name, text []byte
	for id := uint32(0); int(id) < c.Spec.NumDocs; id++ {
		name = corpus.DocName(name[:0], id)
		text = corpus.DocText(c.Spec.Seed, id, c.DocLens[id], c.Spec.NumTerms, text[:0])
		if err := b.Add(name, text); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

// fetchTrace samples a Zipfian document-id trace.
func fetchTrace(numDocs int, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, fetchZipfS, 1, uint64(numDocs-1))
	ids := make([]uint32, fetchTraceLen)
	for i := range ids {
		ids[i] = uint32(z.Uint64())
	}
	return ids
}

// fetchPassGBs measures decoded-payload throughput of one engine over
// the trace, repeating passes until the wall-clock window is long enough
// to trust. It returns GB/s and the simulated charges of a single pass.
//
//boss:wallclock this report intentionally measures real host-side decode throughput.
func fetchPassGBs(eng *core.FetchEngine, ids []uint32) (float64, *perf.Metrics) {
	var buf core.DocBuf
	defer buf.Release()
	m := perf.NewMetrics()
	var bytes int64
	pass := func(m *perf.Metrics) {
		for _, id := range ids {
			if err := eng.FetchInto(context.Background(), id, m, &buf); err != nil {
				panic(err)
			}
			for _, f := range buf.Fields {
				bytes += int64(len(f))
			}
		}
	}
	pass(m) // warm pass also records the deterministic single-pass charges
	bytes = 0
	start := time.Now()
	for {
		pass(perf.NewMetrics())
		if time.Since(start) >= wallclockMinDuration {
			break
		}
	}
	elapsed := time.Since(start).Seconds()
	return float64(bytes) / elapsed / 1e9, m
}

// Fetch measures the document fetch phase: the host-side decode kernel
// cold versus cached, and the end-to-end cost of attaching the fetch
// phase to cluster search. Wall-clock reads live in fetchPassGBs and
// measureQPS; the simulated fields are deterministic.
func Fetch(ctx *Context, shards int) *FetchReport {
	if shards <= 0 {
		shards = 4
	}
	s := ctx.CCNews()
	c := s.Corpus
	ds := buildFetchStore(c)
	ids := fetchTrace(c.Spec.NumDocs, ctx.Cfg.Seed)

	rep := &FetchReport{
		Schema:     BenchSchema,
		PR:         BenchPR,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Corpus:     c.Spec.Name,
		NumDocs:    c.Spec.NumDocs,
		Shards:     shards,
		Seed:       ctx.Cfg.Seed,
		ZipfS:      fetchZipfS,
		Trace:      len(ids),
	}

	// Cold: no host cache, every fetch CRC-checks and decodes its block.
	cold, m := fetchPassGBs(core.NewFetchEngine(ds, nil), ids)
	rep.ColdGBs = cold
	rep.SimDocsFetched = m.DocsFetched
	rep.SimDocBlocksFetched = m.DocBlocksFetched
	rep.SimLoadDocBytes = m.Cat[mem.CatLoadDoc]

	// Cached: same trace against a cache big enough to hold the decoded
	// store; after the warm pass inside fetchPassGBs every block repeat
	// is a zero-copy pinned read. The replay invariant says the simulated
	// charges must match the cold pass exactly.
	ch := cache.New(int64(ds.NumDocs) * 4096)
	cachedEng := core.NewFetchEngine(ds, ch)
	cached, cm := fetchPassGBs(cachedEng, ids)
	rep.CachedGBs = cached
	if cold > 0 {
		rep.CacheSpeedup = cached / cold
	}
	if *m != *cm {
		panic(fmt.Sprintf("harness: fetch charges diverge with cache:\ncold:   %+v\ncached: %+v", m, cm))
	}
	st := ch.Stats()
	rep.DocHitRate = st.DocHitRate()
	rep.PostingHitRate = st.PostingHitRate()

	// End-to-end: cluster batch search with and without the fetch phase.
	cl, err := pool.NewCluster(pool.DefaultConfig(), c, shards)
	if err != nil {
		panic(err)
	}
	qs := corpus.SampleQueries(c, corpus.Q2, 32, ctx.Cfg.Seed)
	exprs := make([]string, len(qs))
	for i, q := range qs {
		exprs[i] = q.Expr
	}
	for _, k := range fetchKs {
		pt := FetchPoint{K: k}
		search, searchFetch := pool.Queries(exprs, k), pool.Queries(exprs, k)
		for i := range searchFetch {
			searchFetch[i].WithDocs = true
		}
		pt.SearchQPS = measureQPS(len(exprs), func() {
			if br := cl.SearchBatchQueries(context.Background(), search); br.Err != nil {
				panic(br.Err)
			}
		})
		pt.SearchFetchQPS = measureQPS(len(exprs), func() {
			if br := cl.SearchBatchQueries(context.Background(), searchFetch); br.Err != nil {
				panic(br.Err)
			}
		})
		if pt.SearchQPS > 0 {
			pt.FetchCostPct = 100 * (1 - pt.SearchFetchQPS/pt.SearchQPS)
		}
		rep.Points = append(rep.Points, pt)
	}
	return rep
}

// Table renders the report in the harness's table format so -fetch
// composes with the text output path too.
func (r *FetchReport) Table() *Table {
	rows := [][]string{
		{"decode-cold", "-", fmt.Sprintf("%.2f GB/s", r.ColdGBs), "-"},
		{"decode-cached", "-", fmt.Sprintf("%.2f GB/s", r.CachedGBs), fmt.Sprintf("%.1fx", r.CacheSpeedup)},
	}
	for _, p := range r.Points {
		rows = append(rows,
			[]string{"search", fmt.Sprintf("%d", p.K), f0(p.SearchQPS) + " qps", "-"},
			[]string{"search+fetch", fmt.Sprintf("%d", p.K), f0(p.SearchFetchQPS) + " qps", fmt.Sprintf("-%.1f%%", p.FetchCostPct)},
		)
	}
	return &Table{
		ID: "fetch",
		Title: fmt.Sprintf("Document fetch phase on %s (%d docs, %d shards, zipf %.1f, doc hit rate %.0f%%)",
			r.Corpus, r.NumDocs, r.Shards, r.ZipfS, 100*r.DocHitRate),
		Header: []string{"phase", "k", "throughput", "delta"},
		Rows:   rows,
		Notes: []string{
			"wall-clock host decode/search throughput (not simulated device latency)",
			"cold decodes every block; cached serves block repeats zero-copy from the decoded-block cache",
			"simulated charges are cache-independent (replay invariant) and deterministic in the seed",
		},
	}
}
