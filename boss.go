// Package boss is a library reproduction of "BOSS: Bandwidth-Optimized
// Search Accelerator for Storage-Class Memory" (ISCA 2021). It provides a
// full-text inverted-index engine — document ingestion, hybrid posting-list
// compression, BM25 ranking, boolean queries — together with
// transaction-level models of the paper's hardware: the BOSS near-data
// accelerator, the IIU baseline accelerator, and an SCM/DRAM memory-pool
// substrate. The internal packages hold the substrates; this package is the
// stable facade a downstream user works with.
//
// Quick start:
//
//	b := boss.NewBuilder()
//	b.Add("doc1", "the quick brown fox")
//	b.Add("doc2", "the lazy dog")
//	ix := b.Build()
//	hits, _ := ix.Search(`"quick" OR "lazy"`, 10)
//
// To see how the same query behaves on the paper's accelerator over
// storage-class memory:
//
//	acc := ix.Accelerator(boss.AccelOptions{})
//	hits, stats, _ := acc.Search(`"quick" OR "lazy"`, 10)
//	fmt.Println(stats.SimulatedLatency, stats.DeviceBytes)
package boss

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
	"unicode"

	"boss/internal/compress"
	"boss/internal/corpus"
	"boss/internal/docstore"
	"boss/internal/engine"
	"boss/internal/index"
	"boss/internal/mem"
	"boss/internal/perf"
	"boss/internal/pool"
	"boss/internal/query"
	"boss/internal/score"
	"boss/internal/sim"
	"boss/internal/topk"
)

// Builder accumulates documents and produces an Index. Documents are
// tokenized by lowercasing and splitting on non-alphanumeric runes.
type Builder struct {
	names   []string
	texts   []string // raw document text, packed into the document store
	termTFs []map[string]uint32
	params  score.Params
	impacts bool
}

// NewBuilder returns an empty index builder with the paper's BM25
// parameters (k1 = 1.2, b = 0.75).
func NewBuilder() *Builder {
	return &Builder{params: score.DefaultParams()}
}

// SetBM25 overrides the ranking parameters.
func (b *Builder) SetBM25(k1, bParam float64) {
	b.params = score.Params{K1: k1, B: bParam}
}

// EnableImpacts makes Build quantize each posting's BM25 contribution
// into the posting blocks (one byte per posting), which the sparse-dot
// query family — SPARSE("a", "b", ...) — reads instead of recomputing
// BM25. Boolean queries are unaffected; without this, SPARSE queries
// fail with an error naming the missing build option.
func (b *Builder) EnableImpacts() { b.impacts = true }

// Add ingests one document. name identifies the document in search results;
// docIDs are assigned in insertion order.
func (b *Builder) Add(name, text string) {
	tf := make(map[string]uint32)
	for _, tok := range Tokenize(text) {
		tf[tok]++
	}
	b.names = append(b.names, name)
	b.texts = append(b.texts, text)
	b.termTFs = append(b.termTFs, tf)
}

// Len reports the number of documents added so far.
func (b *Builder) Len() int { return len(b.names) }

// Tokenize splits text into lowercase alphanumeric terms.
func Tokenize(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// Build compresses the accumulated documents into a searchable index using
// the paper's hybrid per-list compression selection.
func (b *Builder) Build() *Index {
	if len(b.names) == 0 {
		panic("boss: Build on an empty Builder")
	}
	// Assemble posting lists in term order.
	byTerm := make(map[string][]corpus.Posting)
	docLens := make([]uint32, len(b.names))
	for doc, tfs := range b.termTFs {
		for term, tf := range tfs {
			byTerm[term] = append(byTerm[term], corpus.Posting{DocID: uint32(doc), TF: tf})
			docLens[doc] += tf
		}
	}
	terms := make([]string, 0, len(byTerm))
	for t := range byTerm {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	c := &corpus.Corpus{
		Spec:    corpus.Spec{Name: "user", NumDocs: len(b.names), NumTerms: len(terms)},
		DocLens: docLens,
	}
	var total uint64
	for _, l := range docLens {
		total += uint64(l)
	}
	c.AvgDocLen = float64(total) / float64(len(docLens))
	if c.AvgDocLen == 0 {
		c.AvgDocLen = 1
	}
	for _, t := range terms {
		ps := byTerm[t]
		sort.Slice(ps, func(i, j int) bool { return ps[i].DocID < ps[j].DocID })
		c.Terms = append(c.Terms, corpus.TermPostings{Term: t, Postings: ps})
		c.TotalPostings += int64(len(ps))
	}
	// Pack the raw documents into the block-compressed store that serves
	// the fetch phase; user-built indexes return the exact ingested text.
	db := docstore.NewBuilder("name", "text")
	for i, name := range b.names {
		if err := db.AddStrings(name, b.texts[i]); err != nil {
			panic(err) // unreachable: arity is fixed above
		}
	}
	return &Index{
		idx:   index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid, Params: b.params, Impacts: b.impacts}),
		names: b.names,
		docs:  db.Build(),
	}
}

// Index is a searchable, compressed inverted index.
type Index struct {
	idx   *index.Index
	names []string // docID -> user-facing name; nil for synthetic corpora

	// Fetch-phase document store: packed eagerly from the ingested text by
	// Builder.Build, synthesized lazily from the retained sampler
	// statistics for synthetic corpora, and absent for deserialized
	// indexes (fetching then fails with ErrNoDocStore).
	docs     *docstore.Store
	spec     *corpus.Spec // non-nil only for synthetic corpora
	docLens  []uint32
	docsOnce sync.Once
	docsErr  error
}

// ErrNoDocStore reports a document fetch against an index without a
// document store (indexes read back with ReadIndex carry postings only).
var ErrNoDocStore = errors.New("boss: index has no document store")

// ensureDocs returns the index's document store, synthesizing it on
// first use for synthetic corpora.
func (ix *Index) ensureDocs() (*docstore.Store, error) {
	ix.docsOnce.Do(func() {
		if ix.docs != nil {
			return // packed eagerly by Builder.Build
		}
		if ix.spec == nil {
			ix.docsErr = ErrNoDocStore
			return
		}
		ix.docs, ix.docsErr = corpus.DocStore(*ix.spec, ix.docLens, 0, uint32(ix.idx.NumDocs))
	})
	return ix.docs, ix.docsErr
}

// Hit is one search result.
type Hit struct {
	// Doc is the document name given to Builder.Add (or "doc<N>" for
	// synthetic corpora).
	Doc string
	// DocID is the internal identifier.
	DocID uint32
	// Score is the BM25 query score.
	Score float64
}

// maxDocName is the longest synthetic document name, "doc4294967295".
const maxDocName = len("doc") + 10

// hits names a ranking's documents from an optional name table (nil for
// synthetic corpora, sharded deployments and deserialized indexes); a
// document the table does not name is "doc<N>" (corpus.DocName). The
// synthetic names are written into one buffer that becomes one string, which
// each hit's name slices, so a ranking costs two allocations however long it
// is: its hits and their names.
func hits(names []string, entries []topk.Entry) []Hit {
	out := make([]Hit, len(entries))
	var all strings.Builder
	var name [maxDocName]byte
	for i, e := range entries {
		out[i] = Hit{DocID: e.DocID, Score: e.Score}
		if int(e.DocID) < len(names) {
			out[i].Doc = names[e.DocID]
			continue
		}
		if all.Cap() == 0 {
			all.Grow(maxDocName * (len(entries) - i))
		}
		all.Write(corpus.DocName(name[:0], e.DocID))
	}
	rest := all.String()
	for i := range out {
		if int(out[i].DocID) >= len(names) {
			n := len(corpus.DocName(name[:0], out[i].DocID))
			out[i].Doc, rest = rest[:n], rest[n:]
		}
	}
	return out
}

// NumDocs reports the number of indexed documents.
func (ix *Index) NumDocs() int { return ix.idx.NumDocs }

// NumTerms reports the vocabulary size.
func (ix *Index) NumTerms() int { return len(ix.idx.Lists) }

// HasTerm reports whether the term is indexed (after tokenization rules).
func (ix *Index) HasTerm(term string) bool { return ix.idx.List(term) != nil }

// FootprintBytes reports the simulated memory footprint of the index
// (compressed payloads + block metadata + per-document scoring metadata).
func (ix *Index) FootprintBytes() uint64 { return ix.idx.TotalBytes }

// Search runs a boolean query expression (`"a" AND ("b" OR "c")`) on the
// software engine and returns the top-k hits.
func (ix *Index) Search(expr string, k int) ([]Hit, error) {
	node, err := query.Parse(expr)
	if err != nil {
		return nil, err
	}
	res, err := engine.New(ix.idx).Run(node, k)
	if err != nil {
		return nil, err
	}
	return hits(ix.names, res.TopK), nil
}

// BatchItem is one query's outcome in a batch search. A nil Err with empty
// Hits means the query genuinely matched nothing.
type BatchItem struct {
	// Hits is the query's top-k result list.
	Hits []Hit
	// Stats carries simulated-device statistics on accelerator paths (nil
	// on the software-engine path).
	Stats *SimStats
	// Err reports why this query failed (parse error, unknown term, ...).
	Err error
	// Degraded, on the resilient sharded paths (SearchBatchCtx), is a
	// bitmask of memory nodes whose shard results are missing from Hits;
	// zero means the result is complete. Always zero elsewhere.
	Degraded uint64
}

// SearchBatch runs many queries concurrently on the software engine (one
// worker per CPU) and returns one item per query, in input order. Each item
// is what Search returns for its query.
func (ix *Index) SearchBatch(exprs []string, k int) []BatchItem {
	items := make([]BatchItem, len(exprs))
	pool.ForEach(context.Background(), len(exprs), batchWorkers(len(exprs)), func(i int) {
		items[i].Hits, items[i].Err = ix.Search(exprs[i], k)
	})
	return items
}

// batchWorkers is the facade batches' width: one worker per CPU, and no more
// workers than queries.
func batchWorkers(n int) int { return min(runtime.GOMAXPROCS(0), n) }

// WriteTo serializes the index (document names are not serialized; a
// re-read index reports synthetic names).
func (ix *Index) WriteTo(w io.Writer) (int64, error) { return ix.idx.WriteTo(w) }

// ReadIndex deserializes an index written with WriteTo.
func ReadIndex(r io.Reader) (*Index, error) {
	idx, err := index.Read(r)
	if err != nil {
		return nil, err
	}
	return &Index{idx: idx}, nil
}

// AccelOptions configures the simulated BOSS accelerator.
type AccelOptions struct {
	// DisableBlockET turns off the block-fetch module's score-estimation
	// skipping (the BOSS-exhaustive/block ablations).
	DisableBlockET bool
	// DisableWAND turns off the union module's document-level skipping.
	DisableWAND bool
	// FixedPoint scores in Q16.16 like the synthesized hardware.
	FixedPoint bool
	// DRAM runs the accelerator against the DRAM pool configuration
	// instead of SCM (the paper's Figure 16 comparison).
	DRAM bool
	// Cores sets the device's core count for throughput estimates
	// (default 8, as in the paper).
	Cores int
	// CacheBytes budgets the host-side decoded-block cache that serves
	// repeated queries from this handle (0 = 64 MiB default, negative
	// disables). The cache changes wall-clock speed only: simulated stats
	// and hits are byte-identical with it on, off, or resized.
	CacheBytes int64
}

// Accelerator is a handle to the simulated BOSS device over one index: the
// paper's deployment with a single memory node, which runs on a one-shard
// pool.Cluster, the request path a ShardedIndex's nodes run on.
type Accelerator struct {
	deployment
}

// Accelerator returns a simulated BOSS device over the index.
func (ix *Index) Accelerator(opts AccelOptions) *Accelerator {
	cfg := pool.DefaultConfig()
	cfg.Opts.BlockET, cfg.Opts.DocET, cfg.Opts.FixedPoint = !opts.DisableBlockET, !opts.DisableWAND, opts.FixedPoint
	if opts.CacheBytes != 0 {
		cfg.CacheBytes = max(opts.CacheBytes, 0) // negative disables, as 0 does in pool.Config
	}
	cl, err := pool.NewSingle(cfg, ix.idx, ix.ensureDocs)
	if err != nil {
		panic(err) // unreachable: the config is valid by construction
	}
	dev := mem.SCM()
	if opts.DRAM {
		dev = mem.DRAM()
	}
	cores := opts.Cores
	if cores <= 0 {
		cores = 8
	}
	return &Accelerator{deployment{cluster: cl, names: ix.names, dev: dev, cores: cores}}
}

// CacheHitRate reports the fraction of block fetches this handle served
// from its decoded-block cache (0 when the cache is disabled or cold).
// The cache is shared by both client classes — decoded posting blocks
// (search) and decoded document blocks (fetch) — and this rate spans
// both; PostingCacheHitRate and DocCacheHitRate report the split.
func (a *Accelerator) CacheHitRate() float64 { return a.cluster.CacheStats().HitRate() }

// PostingCacheHitRate reports the decoded-block cache hit rate of the
// search phase's posting-block fetches alone.
func (a *Accelerator) PostingCacheHitRate() float64 {
	return a.cluster.CacheStats().PostingHitRate()
}

// DocCacheHitRate reports the decoded-block cache hit rate of the fetch
// phase's document-block fetches alone.
func (a *Accelerator) DocCacheHitRate() float64 {
	return a.cluster.CacheStats().DocHitRate()
}

// Doc is one fetched document payload.
type Doc struct {
	// DocID is the internal identifier.
	DocID uint32
	// Name is the document name given to Builder.Add ("doc<N>" for
	// synthetic corpora).
	Name string
	// Text is the document body: the exact ingested text for user-built
	// indexes, the deterministic synthetic payload otherwise. Empty for
	// documents a degraded sharded fetch could not serve.
	Text string
}

// FetchDocs fetches document payloads by docID, charging the simulated
// device for the document-store block loads and decodes exactly as
// Search charges posting-block work, and the host link for the payloads
// returned. Repeated fetches of co-located documents hit the handle's
// decoded-block cache, which changes wall-clock speed only: the returned
// stats are byte-identical with the cache on, off, or resized.
func (a *Accelerator) FetchDocs(ids []uint32) ([]Doc, *SimStats, error) {
	res, err := a.result(a.cluster.FetchBatch(context.Background(), ids))
	if err != nil {
		return nil, nil, err
	}
	return res.Docs, res.Stats, nil
}

// SearchFetch executes a query and fetches the top-k hits' documents in
// one call: the paper's full serving path, where ranking ends at scored
// docIDs and the response returns the documents themselves. The returned
// stats cover both phases — posting traffic plus document-store traffic,
// and on the host link the ranking plus the payloads — on one simulated
// device.
func (a *Accelerator) SearchFetch(expr string, k int) ([]Hit, []Doc, *SimStats, error) {
	res, err := a.result(a.cluster.SearchFetchCtx(context.Background(), expr, k))
	if err != nil {
		return nil, nil, nil, err
	}
	return res.Hits, res.Docs, res.Stats, nil
}

// SimStats summarizes one simulated query execution.
type SimStats struct {
	// SimulatedLatency is the single-core query latency on the device.
	SimulatedLatency time.Duration
	// ThroughputQPS is the device throughput at the configured core count
	// (bounded by compute, device bandwidth, and the host link).
	ThroughputQPS float64
	// DeviceBytes is the SCM/DRAM traffic the query generated.
	DeviceBytes int64
	// HostBytes crossed the shared interconnect: the ranking (k results ×
	// 8 B per node that ranked) plus, on the fetch paths, every returned
	// document's name and text bytes.
	HostBytes int64
	// DocsEvaluated is the number of documents actually scored.
	DocsEvaluated int64
	// BlocksFetched and BlocksSkipped count posting blocks loaded vs
	// skipped by early termination / overlap checking.
	BlocksFetched int64
	BlocksSkipped int64
	// DocsFetched is the number of documents returned by the fetch phase
	// (zero on search-only paths).
	DocsFetched int64
}

func simStats(m *perf.Metrics, dev mem.Config, cores int) *SimStats {
	return &SimStats{
		SimulatedLatency: time.Duration(m.Latency(dev)/sim.Nanosecond) * time.Nanosecond,
		ThroughputQPS:    m.Throughput(cores, dev, mem.DefaultLinkGBs),
		DeviceBytes:      m.DeviceBytes(),
		HostBytes:        m.HostBytes,
		DocsEvaluated:    m.DocsEvaluated,
		BlocksFetched:    m.BlocksFetched,
		BlocksSkipped:    m.BlocksSkipped,
		DocsFetched:      m.DocsFetched,
	}
}

// Search executes a query on the simulated accelerator, returning the
// top-k hits and the execution's simulated statistics. The expression is
// prepared as Server.Submit prepares it, so one of more than 16 term
// occurrences is refused with the same error before anything runs.
func (a *Accelerator) Search(expr string, k int) ([]Hit, *SimStats, error) {
	res, err := a.result(a.cluster.Search(expr, k))
	if err != nil {
		return nil, nil, err
	}
	return res.Hits, res.Stats, nil
}

// SearchBatch runs many queries concurrently on the simulated accelerator
// (one worker per CPU) and returns one item per query, in input order, each
// with its own simulated statistics. Each item is what Search returns for
// its query: the device model is stateless.
func (a *Accelerator) SearchBatch(exprs []string, k int) []BatchItem {
	return a.batchItems(context.Background(), exprs, k, true)
}

// SyntheticKind selects a built-in synthetic corpus profile.
type SyntheticKind int

// Synthetic corpus profiles mimicking the paper's datasets.
const (
	ClueWebLike SyntheticKind = iota
	CCNewsLike
)

// spec returns the kind's corpus profile at scale.
func (kind SyntheticKind) spec(scale float64) (corpus.Spec, error) {
	switch kind {
	case ClueWebLike:
		return corpus.ClueWebLike(scale), nil
	case CCNewsLike:
		return corpus.CCNewsLike(scale), nil
	}
	return corpus.Spec{}, fmt.Errorf("boss: unknown synthetic corpus kind %d", kind)
}

// BuildSynthetic generates a synthetic corpus with realistic posting-list
// statistics (Zipf document frequencies, clustered docIDs) and indexes it
// with hybrid compression. scale in (0, 1] controls size; see
// internal/corpus for the profiles. Terms are named "t<rank>" by descending
// document frequency.
func BuildSynthetic(kind SyntheticKind, scale float64) *Index {
	spec, err := kind.spec(scale)
	if err != nil {
		panic("boss: unknown synthetic corpus kind")
	}
	c := corpus.Generate(spec)
	return &Index{
		idx: index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid}),
		// Retained so the fetch phase can synthesize the document store
		// lazily: payloads depend only on (Seed, docID, DocLens).
		spec:    &spec,
		docLens: c.DocLens,
	}
}

// CommonTerm returns the term at the given document-frequency rank of a
// synthetic index ("t0" is the most common). It panics on user-built
// indexes where ranks are not defined.
func (ix *Index) CommonTerm(rank int) string {
	term := fmt.Sprintf("t%d", rank)
	if ix.idx.List(term) == nil {
		panic(fmt.Sprintf("boss: no term at rank %d (synthetic indexes only)", rank))
	}
	return term
}

// ShardedIndex is the paper's pooled-memory deployment (Figure 1(b)): the
// collection partitioned into docID-interval shards, one per memory node,
// each with its own simulated BOSS device. Queries fan out to every node
// and the per-node top-k lists are merged; because shards score with
// collection-global statistics, results are identical to a single index's.
type ShardedIndex struct {
	deployment
}

// deployment is the facade over one pool.Cluster, a ShardedIndex's or an
// Accelerator's one-shard cluster: names names its hits (nil: "doc<N>"),
// and dev and cores turn its work into SimStats.
type deployment struct {
	cluster *pool.Cluster
	names   []string
	dev     mem.Config
	cores   int
}

// Shard builds a sharded deployment of a synthetic corpus over the given
// number of memory nodes. An unknown corpus kind or an invalid shard
// count (nodes <= 0, or more nodes than documents) returns an error.
func Shard(kind SyntheticKind, scale float64, nodes int) (*ShardedIndex, error) {
	return ShardReplicated(kind, scale, nodes, ReplicaOptions{})
}

// ReplicaOptions configures shard replication for ShardReplicated. The
// zero value means single-copy shards with hedging off — exactly Shard.
// Negative values are refused with an error wrapping pool.ErrBadConfig.
type ReplicaOptions struct {
	// Replicas is the number of independently-faultable copies of every
	// shard (0 or 1 = single copy).
	Replicas int
	// HedgeCutoff, when positive, arms hedged requests: a backup attempt
	// fires on another replica when the primary has not answered within
	// the cutoff (0 = hedging off). Requires Replicas > 1 to have any
	// effect.
	HedgeCutoff time.Duration
}

// ShardReplicated is Shard with R-way shard replication: every memory
// node's shard exists as opt.Replicas independently-faultable copies,
// queries route to copies deterministically with open-breaker copies
// skipped, and retries rotate across copies (so even a permanent media
// error on one copy is served from another). With opt.HedgeCutoff set,
// tail-latency stragglers are hedged onto a second copy.
func ShardReplicated(kind SyntheticKind, scale float64, nodes int, opt ReplicaOptions) (*ShardedIndex, error) {
	spec, err := kind.spec(scale)
	if err != nil {
		return nil, err
	}
	c := corpus.Generate(spec)
	cfg := pool.DefaultConfig()
	if opt.Replicas != 0 {
		cfg.Replicas = opt.Replicas
	}
	if opt.Replicas > 1 {
		// Replication without retries cannot fail over: a query whose
		// deterministic draw lands on a dead copy would degrade instead
		// of rotating onto a survivor. Single-copy deployments keep the
		// zero-valued (retry-free) resilience Shard always had.
		cfg.Resilience = pool.DefaultResilience()
	}
	// Both values pass through as given: NewCluster refuses negative ones.
	cfg.Resilience.HedgeCutoff = opt.HedgeCutoff
	cl, err := pool.NewCluster(cfg, c, nodes)
	if err != nil {
		return nil, err
	}
	return &ShardedIndex{deployment{cluster: cl, dev: mem.SCM(), cores: 8}}, nil
}

// Nodes reports how many memory nodes hold shards.
func (s *ShardedIndex) Nodes() int { return s.cluster.Shards() }

// Replicas reports how many copies of each shard the deployment holds.
func (s *ShardedIndex) Replicas() int { return s.cluster.Replicas() }

// CacheHitRate reports the fraction of block fetches the cluster served
// from its cross-query decoded-block cache, across both client classes
// (decoded posting blocks and decoded document blocks).
func (s *ShardedIndex) CacheHitRate() float64 { return s.cluster.CacheStats().HitRate() }

// DocCacheHitRate reports the cluster cache's hit rate for the fetch
// phase's document blocks alone.
func (s *ShardedIndex) DocCacheHitRate() float64 { return s.cluster.CacheStats().DocHitRate() }

// Search fans the query out to every node and merges the results. The
// returned stats aggregate all nodes' work; HostBytes is the total result
// traffic over the shared interconnect (per-node top-k lists).
func (s *ShardedIndex) Search(expr string, k int) ([]Hit, *SimStats, error) {
	res, err := s.result(s.cluster.Search(expr, k))
	if err != nil {
		return nil, nil, err
	}
	return res.Hits, res.Stats, nil
}

// SearchBatch pipelines many queries across the pooled-memory cluster: each
// host worker owns one in-flight query and sweeps it across the nodes, so
// different queries occupy different nodes concurrently. Items preserve
// input order and match Search query for query.
func (s *ShardedIndex) SearchBatch(exprs []string, k int) []BatchItem {
	return s.batchItems(context.Background(), exprs, k, true)
}

// batchItems runs a cluster batch and converts it into facade items. strict
// is SearchBatch's contract, matching Search: a node failure fails the item
// instead of degrading it.
func (d *deployment) batchItems(ctx context.Context, exprs []string, k int, strict bool) []BatchItem {
	var br pool.BatchResult
	d.cluster.SearchBatchQueries(ctx, pool.Queries(exprs, k), &br)
	items := make([]BatchItem, len(br.Results))
	for i := range br.Results {
		res, err := &br.Results[i], br.Errs[i]
		if err == nil && strict {
			for _, e := range res.ShardErrs {
				if e != nil {
					err = e
					break
				}
			}
		}
		if r, err := d.result(res, err); err != nil {
			items[i].Err = err
		} else {
			items[i] = BatchItem{Hits: r.Hits, Stats: r.Stats, Degraded: r.Degraded}
		}
	}
	return items
}

// FaultConfig describes deterministic fault injection across a sharded
// deployment: every probabilistic decision derives from Seed, so a run
// is exactly reproducible. The zero value injects nothing.
type FaultConfig struct {
	// Seed drives every fault draw.
	Seed int64
	// TransientRate is the per-access probability of a retryable read
	// error in [0, 1).
	TransientRate float64
	// UncorrectableRate is the per-access probability of a permanent
	// media error in [0, 1).
	UncorrectableRate float64
	// DeadNodes lists memory nodes that never answer. On a replicated
	// deployment a dead node takes down every replica of its shard; to
	// kill a single copy, use DeadReplicas.
	DeadNodes []int
	// DeadReplicas kills individual shard copies on a replicated
	// deployment, leaving the node's other copies serving.
	DeadReplicas []NodeReplica
}

// NodeReplica names one shard copy: replica Replica of the shard on
// memory node Node.
type NodeReplica struct {
	Node    int
	Replica int
}

// InjectFaults applies a fault configuration to the deployment's memory
// nodes (the zero value restores pristine devices). Setup-time only: not
// safe concurrently with searches.
func (s *ShardedIndex) InjectFaults(fc FaultConfig) {
	var dead []int
	r := s.cluster.Replicas()
	for _, n := range fc.DeadNodes {
		for ri := 0; ri < r; ri++ {
			dead = append(dead, s.cluster.ReplicaDevice(n, ri))
		}
	}
	for _, nr := range fc.DeadReplicas {
		dead = append(dead, s.cluster.ReplicaDevice(nr.Node, nr.Replica))
	}
	s.cluster.SetFaultPlan(&mem.FaultPlan{
		Seed:              fc.Seed,
		TransientRate:     fc.TransientRate,
		UncorrectableRate: fc.UncorrectableRate,
		DeadDevices:       dead,
	})
}

// ShardedResult is a resilient sharded query's outcome: the merged hits,
// aggregate statistics over the surviving nodes, and a bitmask of nodes
// whose shard results are missing (zero = complete).
type ShardedResult struct {
	Hits     []Hit
	Stats    *SimStats
	Degraded uint64
	// Docs holds fetched document payloads on the fetch paths
	// (SearchFetchCtx: one per Hit, in rank order; FetchDocsCtx: one per
	// requested docID). Documents a degraded node could not serve are
	// zero-valued apart from their position. Nil on search-only paths.
	Docs []Doc
	// Hedged counts shard attempts that fired a hedged backup, and
	// HedgeWins how many of those backups beat the primary. Always zero
	// on single-copy or hedging-off deployments.
	Hedged    int
	HedgeWins int
	// ServedBy names the replica that served each node's shard (-1 for a
	// degraded node). Nil on single-copy deployments.
	ServedBy []int
}

// result converts a cluster call's outcome into the facade form.
func (d *deployment) result(res *pool.ClusterResult, err error) (*ShardedResult, error) {
	if err != nil {
		return nil, err
	}
	var agg perf.Metrics
	for _, m := range res.PerShard {
		if m != nil {
			agg.Merge(m)
		}
	}
	out := &ShardedResult{
		Hits:      hits(d.names, res.TopK),
		Stats:     simStats(&agg, d.dev, d.cores),
		Degraded:  res.Degraded,
		Hedged:    res.Hedged,
		HedgeWins: res.HedgeWins,
		ServedBy:  res.ServedBy,
		Docs:      docsFromFetched(res.Docs), // nil on search-only results
	}
	return out, nil
}

// docsFromFetched converts fetched payloads (already copied at the cluster
// boundary) into facade Docs. Every name and text is written into one buffer
// that becomes one string, which each Doc's Name and Text slice, so an answer
// costs two allocations however many documents it holds: its Docs and their
// payloads. A degraded fetch leaves a document's Fields empty; the Doc keeps
// its id with empty payloads.
func docsFromFetched(fds []pool.FetchedDoc) []Doc {
	if fds == nil {
		return nil
	}
	n := 0
	for _, f := range fds {
		if len(f.Fields) == 2 {
			n += len(f.Fields[0]) + len(f.Fields[1])
		}
	}
	var all strings.Builder
	all.Grow(n)
	for _, f := range fds {
		if len(f.Fields) == 2 {
			all.Write(f.Fields[0])
			all.Write(f.Fields[1])
		}
	}
	rest := all.String()
	out := make([]Doc, len(fds))
	for i, f := range fds {
		out[i] = Doc{DocID: f.DocID}
		if len(f.Fields) == 2 {
			out[i].Name, rest = rest[:len(f.Fields[0])], rest[len(f.Fields[0]):]
			out[i].Text, rest = rest[:len(f.Fields[1])], rest[len(f.Fields[1]):]
		}
	}
	return out
}

// SearchFetchCtx is SearchCtx plus the fetch phase: the merged top-k
// hits' documents come back in Docs, fetched from the nodes that hold
// them with the same deadlines, retries, and circuit breaking as the
// search fan-out. Nodes that fail either phase appear in Degraded; a
// degraded fetch leaves its documents zero-valued rather than failing
// the query.
func (s *ShardedIndex) SearchFetchCtx(ctx context.Context, expr string, k int) (*ShardedResult, error) {
	return s.result(s.cluster.SearchFetchCtx(ctx, expr, k))
}

// FetchDocsCtx fetches document payloads by docID across the deployment:
// each document is served by the memory node holding its shard. The
// result's Hits are empty; Docs holds one entry per requested id, in
// input order.
func (s *ShardedIndex) FetchDocsCtx(ctx context.Context, ids []uint32) (*ShardedResult, error) {
	return s.result(s.cluster.FetchBatch(ctx, ids))
}

// SearchCtx is Search with deadlines, bounded retry, per-node circuit
// breaking, and graceful degradation: when a node fails permanently its
// shard is dropped from the merge and flagged in Degraded rather than
// failing the query. The error is non-nil only when the context dies,
// the query is invalid, or every node fails.
func (s *ShardedIndex) SearchCtx(ctx context.Context, expr string, k int) (*ShardedResult, error) {
	return s.result(s.cluster.SearchCtx(ctx, expr, k))
}

// SearchBatchCtx is SearchBatch with per-query resilience: node failures
// degrade individual results (see BatchItem.Degraded) instead of
// failing them, and cancelling the context fails the remaining queries
// promptly.
func (s *ShardedIndex) SearchBatchCtx(ctx context.Context, exprs []string, k int) []BatchItem {
	return s.batchItems(ctx, exprs, k, false)
}
