// Package pool is the paper's Figure 1(b) pooled-memory deployment that
// serves queries: docID-interval shards on wall-clock accelerators behind
// one request path (Cluster, configured by Config), with replication,
// resilience and the fetch phase, and ForEach, the repository's one batch
// worker pool. It keeps no clock of its own: each shard's accelerator
// charges a perf.Metrics, and callers read simulated time from
// internal/perf's roofline over those metrics.
package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"boss/internal/cache"
	"boss/internal/clock"
	"boss/internal/compress"
	"boss/internal/core"
	"boss/internal/corpus"
	"boss/internal/docstore"
	"boss/internal/index"
	"boss/internal/mem"
	"boss/internal/perf"
	"boss/internal/query"
	"boss/internal/topk"
)

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
	// own accelerator, fault-injection domain and circuit breaker over
	// the shard's one index and document store; every query routes across
	// replicas with deterministic selection, skipping replicas whose
	// breakers are open. Retries follow replication: a replicated shard
	// retries a failed attempt on another copy, a single copy never
	// retries (resilient.go). 1 (the DefaultConfig value) is single-copy
	// serving; values below 1 are rejected by NewCluster with ErrBadConfig.
	Replicas int
	// Clock supplies time to breaker cooldowns and retry backoff; nil uses
	// the wall clock. Tests and the chaos sweep inject a clock.FakeClock,
	// the same one as the front door's when one sits on top.
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

// Cluster is the paper's Figure 1(b)/Figure 2 deployment: the inverted
// index partitioned into disjoint docID-interval shards, one per memory
// node, each with its own BOSS device. A query fans out to every node,
// which returns only its local top-k over the shared interconnect; the root
// merges them. Shard indexes are built with collection-global statistics,
// so the merged ranking is exactly what one giant index would produce.
type Cluster struct {
	cfg     Config
	shards  []*index.Index
	offsets []uint32 // global docID of each shard's local doc 0
	// reps[si][ri] is replica ri of shard si (replica). Every entry point
	// routes across a shard's copies through pickReplica; with Replicas == 1
	// that is always replica 0, byte-identical to single-copy serving.
	reps [][]replica
	// cache is the cross-query decoded-block cache shared by every copy's
	// accelerator and fetch engine (nil when Config.CacheBytes <= 0): posting
	// and store identities are process-wide, so keys never collide across
	// shards, and a shared budget follows the workload's skew instead of
	// splitting it evenly.
	cache *cache.Cache

	// Fetch-phase state (fetch.go). The per-shard document stores are built
	// lazily on first fetch by docs, the cluster's store source, which
	// returns the store of the global docID interval [lo, hi); clusters that
	// never fetch never call it.
	docs     func(lo, hi uint32) (*docstore.Store, error)
	docsOnce sync.Once
	docsErr  error

	// clock (Config.Clock) runs breaker cooldowns and retry backoff
	// (resilient.go).
	clock clock.Clock

	// records recycles the per-request records exec runs on (queryRec). A
	// non-nil poison is handed every record as it is released, before it is
	// recycled: tests overwrite it there, so a result that still pointed into
	// a record would read garbage.
	records sync.Pool
	poison  func(*queryRec)
}

// replica is one shard copy: its wall-clock accelerator over the shard's one
// index, its fetch engine over the shard's one document store (nil until
// EnsureDocs builds the stores), the fault-injection domain both draw from
// (nil: pristine; SetFaultPlan), and its circuit breaker with the copy's
// counters (resilient.go). The accelerator and the fetch engine make every
// charge, the fault draw included, before they read the shared cache's
// answer, so a block another copy decoded never spares a copy its own draw.
type replica struct {
	acc   *core.Accelerator
	fetch *core.FetchEngine
	fault *mem.Injector
	breaker
}

// ErrBadConfig reports an invalid cluster construction request. All
// NewCluster validation failures wrap it.
var ErrBadConfig = errors.New("pool: invalid cluster configuration")

// validateConfig rejects nonsense field values that every construction
// path must refuse consistently (PR 5 fixed the zero-shard panic for
// NewCluster; this audits the remaining fields). Zero values stay legal —
// they mean "default" (K, Workers) or "disabled" (CacheBytes).
func validateConfig(cfg Config) error {
	if cfg.CacheBytes < 0 {
		return fmt.Errorf("%w: negative CacheBytes %d (use 0 to disable the cache)", ErrBadConfig, cfg.CacheBytes)
	}
	if cfg.K < 0 {
		return fmt.Errorf("%w: negative K %d", ErrBadConfig, cfg.K)
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("%w: negative Workers %d", ErrBadConfig, cfg.Workers)
	}
	if cfg.Replicas < 1 {
		return fmt.Errorf("%w: Replicas %d (every shard needs at least one copy; DefaultConfig sets 1)", ErrBadConfig, cfg.Replicas)
	}
	return nil
}

// maxShards is the widest cluster the uint64 Degraded and ShardMask
// bitmasks can describe; a failed shard beyond it would go unreported.
const maxShards = 64

// NewCluster partitions the corpus into `shards` docID intervals and builds
// each node's index over its interval of the one corpus (index.BuildRange),
// scored with the whole collection's statistics. Invalid requests — a
// non-positive shard count, more than maxShards shards, a nil or empty
// corpus, more shards than documents (which would leave shards with no
// documents), or negative config fields — return an error wrapping
// ErrBadConfig instead of panicking.
func NewCluster(cfg Config, c *corpus.Corpus, shards int) (*Cluster, error) {
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	if shards <= 0 {
		return nil, fmt.Errorf("%w: need at least one shard, got %d", ErrBadConfig, shards)
	}
	if shards > maxShards {
		return nil, fmt.Errorf("%w: %d shards exceed the %d that ClusterResult.Degraded and BatchQuery.ShardMask can name",
			ErrBadConfig, shards, maxShards)
	}
	if c == nil || c.Spec.NumDocs == 0 {
		return nil, fmt.Errorf("%w: corpus is nil or empty", ErrBadConfig)
	}
	if shards > c.Spec.NumDocs {
		return nil, fmt.Errorf("%w: %d shards over %d documents would leave empty shards",
			ErrBadConfig, shards, c.Spec.NumDocs)
	}
	var idxs []*index.Index
	var offsets []uint32
	per := (c.Spec.NumDocs + shards - 1) / shards
	for lo := 0; lo < c.Spec.NumDocs; lo += per {
		hi := min(lo+per, c.Spec.NumDocs)
		idxs = append(idxs, index.BuildRange(c, lo, hi, index.BuildOptions{Scheme: compress.SchemeHybrid}))
		offsets = append(offsets, uint32(lo))
	}
	// Document payloads are synthesized from (Seed, global docID, DocLens),
	// so every shard layout packs byte-identical content.
	spec, docLens := c.Spec, append([]uint32(nil), c.DocLens...)
	return assemble(cfg, idxs, offsets, func(lo, hi uint32) (*docstore.Store, error) {
		return corpus.DocStore(spec, docLens, lo, hi)
	})
}

// NewSingle is the single-device deployment: a one-shard cluster over idx,
// an index already built, whose document store docs returns on the first
// fetch. It serves exactly as a NewCluster shard does — the same request
// path, resilience and fetch phase — and, unlike NewCluster's shards, idx
// may carry impacts, so it serves SPARSE. Invalid config fields return an
// error wrapping ErrBadConfig.
func NewSingle(cfg Config, idx *index.Index, docs func() (*docstore.Store, error)) (*Cluster, error) {
	return assemble(cfg, []*index.Index{idx}, []uint32{0}, func(_, _ uint32) (*docstore.Store, error) { return docs() })
}

// Fresh returns a new cluster over the same built shard indexes with
// fresh serving state: its own decoded-block cache, replicas, breakers and
// counters, no fault plan, and an unbuilt fetch phase. The expensive
// immutable artifacts — the shard index builds — are shared with the
// receiver, so sweeps that need per-point state isolation (the chaos
// harness) pay index construction once instead of once per sweep point. cfg
// may differ from the receiver's (a different cache budget, replica count or
// clock).
func (cl *Cluster) Fresh(cfg Config) (*Cluster, error) {
	return assemble(cfg, cl.shards, cl.offsets, cl.docs)
}

// assemble is every constructor's serving state over built shards: the
// cache, cfg.Replicas pristine copies of each shard with closed breakers,
// the clock and the record pool.
func assemble(cfg Config, shards []*index.Index, offsets []uint32, docs func(lo, hi uint32) (*docstore.Store, error)) (*Cluster, error) {
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	cl := &Cluster{cfg: cfg, shards: shards, offsets: offsets, cache: cache.New(cfg.CacheBytes), docs: docs, clock: cfg.Clock}
	if cl.clock == nil {
		cl.clock = clock.Wall()
	}
	cl.reps = make([][]replica, len(shards))
	for si, idx := range shards {
		cl.reps[si] = make([]replica, cfg.Replicas)
		for ri := range cl.reps[si] {
			cl.reps[si][ri].acc = core.NewCached(idx, cfg.Opts, cl.cache)
		}
	}
	cl.records.New = func() any { return newRecord(cl) }
	return cl, nil
}

// Replicas reports the number of independently-faultable copies each
// shard keeps (1 = single-copy serving); validateConfig holds it >= 1.
func (cl *Cluster) Replicas() int { return cl.cfg.Replicas }

// ReplicaDevice maps (shard, replica) to its fault-plan device index:
// replica ri of shard si plays device si*Replicas+ri. With single-copy
// shards that is device si, the historical single-copy layout, so
// existing fault plans keep their meaning.
func (cl *Cluster) ReplicaDevice(si, ri int) int { return si*cl.Replicas() + ri }

// Cache returns the cluster's decoded-block cache, or nil when disabled.
func (cl *Cluster) Cache() *cache.Cache { return cl.cache }

// CacheStats snapshots the cluster cache's counters (zero value when the
// cache is disabled).
func (cl *Cluster) CacheStats() cache.Stats { return cl.cache.Stats() }

// Shards reports the number of populated memory nodes.
func (cl *Cluster) Shards() int { return len(cl.shards) }

// numDocs is the collection's size: where the last shard's interval ends.
func (cl *Cluster) numDocs() int {
	last := len(cl.shards) - 1
	return int(cl.offsets[last]) + cl.shards[last].NumDocs
}

// ClusterResult is a fanned-out query's outcome.
type ClusterResult struct {
	// TopK is the root-merged global ranking.
	TopK []topk.Entry
	// PerShard holds each node's work metrics (nil for nodes the query
	// could not match).
	PerShard []*perf.Metrics
	// LinkBytes is the total result traffic all nodes pushed over the
	// shared interconnect for this query.
	LinkBytes int64
	// Degraded is a bitmask of shards whose results are missing from
	// TopK (bit si set = shard si failed). Zero means the result is
	// complete. Every entry point runs the same degrading path; Search and
	// SearchSerial then turn any failed shard back into the query's error
	// (strict), so they only ever return results with Degraded == 0.
	Degraded uint64
	// ShardErrs, non-nil only for degraded results, holds each failed
	// shard's error at its shard index.
	ShardErrs []error
	// Docs holds fetched document payloads (fetch.go): one entry per
	// requested docID for FetchBatch, one per TopK entry for the
	// search+fetch paths. Entries from degraded shards are zero-valued.
	Docs []FetchedDoc
	// ServedBy, non-nil only on replicated clusters (Replicas > 1),
	// records which replica produced each shard's contribution (-1 for
	// shards that failed or could not match). Single-copy clusters leave
	// it nil so the default serving path allocates nothing extra.
	ServedBy []int

	// metrics is PerShard's backing: every shard's record in one
	// allocation, addressed only through PerShard. errs and served are
	// ShardErrs' and ServedBy's, for a result in a BatchResult; nil, they are
	// allocated when first needed.
	metrics []perf.Metrics
	errs    []error
	served  []int
}

// addShard folds shard si's work into the result: a copy into the result's
// own record on the shard's first contribution, a merge into it after (a
// WithDocs search's fetch).
func (res *ClusterResult) addShard(si int, m *perf.Metrics) {
	res.LinkBytes += m.HostBytes
	if p := res.PerShard[si]; p != nil {
		p.Merge(m)
		return
	}
	res.metrics[si] = *m
	res.PerShard[si] = &res.metrics[si]
}

// prepare is query.Prepare for exec's queries that arrive as a string with
// nothing prepared, refusing in the pool's name.
func prepare(expr string) (*query.Prepared, error) {
	p, err := query.Prepare(expr)
	var lim *query.TermLimitError
	if errors.As(err, &lim) {
		return nil, fmt.Errorf("pool: %w", lim)
	}
	return p, err
}

// workers resolves the host-side fan-out width: cfg.Workers, capped at n,
// defaulting to GOMAXPROCS.
func (cl *Cluster) workers(n int) int {
	w := cl.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// shardOut is one node's contribution to a fanned-out query. m and topk
// point into the request's record (queryRec); the fold copies both out.
type shardOut struct {
	m    *perf.Metrics
	topk []topk.Entry
	err  error
	// ri is the replica that produced the result.
	ri int
}

// planBuf is the storage a narrowed plan is copied into: the conjuncts or
// terms that survive when narrowing drops some. A request's record keeps one
// per shard; the zero value is empty.
type planBuf struct {
	dnf   [][]string
	terms []string
}

// narrow restricts pl, a prepared query's plan or a copy of it, to what one
// shard can answer: a conjunct survives iff idx holds all its terms, a sparse
// term iff idx holds it; ok is false when none does and the shard has no part
// in the answer. This is exactly pruning the expression and normalising the
// rest: Node.DNF is an order-preserving cross product (TestFilterMatchesPrune,
// FuzzFilterVsPrune). The prepared slices are shared, so it writes none: a
// narrowed copy goes into b's storage.
func (b *planBuf) narrow(pl query.Plan, idx *index.Index) (_ query.Plan, ok bool) {
	if pl.DNF != nil {
		pl.DNF = filter(pl.DNF, idx, holdsAll, &b.dnf)
		return pl, len(pl.DNF) > 0
	}
	pl.Terms = filter(pl.Terms, idx, holds, &b.terms)
	return pl, len(pl.Terms) > 0
}

// reset drops the references b holds into the query it last narrowed.
func (b *planBuf) reset() {
	clear(b.dnf)
	clear(b.terms)
	b.dnf, b.terms = b.dnf[:0], b.terms[:0]
}

// filter returns the xs that idx holds: xs itself when that is all of them
// (the common case copies nothing), else a copy — xs is shared — in *buf's
// storage, grown on first use to hold every survivor count xs allows and
// left in *buf for the next call.
func filter[T any](xs []T, idx *index.Index, held func(*index.Index, T) bool, buf *[]T) []T {
	n := 0
	for n < len(xs) && held(idx, xs[n]) {
		n++
	}
	if n == len(xs) {
		return xs
	}
	kept := (*buf)[:0]
	if cap(kept) < len(xs)-1 {
		kept = make([]T, 0, len(xs)-1)
	}
	kept = append(kept, xs[:n]...)
	for _, x := range xs[n+1:] {
		if held(idx, x) {
			kept = append(kept, x)
		}
	}
	*buf = kept
	return kept
}

func holds(idx *index.Index, term string) bool { return idx.List(term) != nil }

func holdsAll(idx *index.Index, conj []string) bool {
	for _, term := range conj {
		if !holds(idx, term) {
			return false
		}
	}
	return true
}

// shardWork is what one request asks of every shard: a search (the query's
// plan, depth and stable replica key) or a fetch (fetch set: the docIDs
// routed to each shard, and the payload scratch the attempts fill, are the
// record's). It is passed by value all the way down, so it never escapes to
// the heap, and runShard can narrow its own copy's plan to the terms its
// shard holds.
type shardWork struct {
	query.Plan
	k    int
	qkey uint64
	// rec is the request's record, which an attempt narrows, charges and
	// ranks into.
	rec *queryRec

	fetch bool
}

// BatchQuery is one request to the cluster: either a search (Expr),
// optionally chained into a fetch of its hits' documents (WithDocs), or a
// document fetch by id (FetchIDs), with an optional front-door shard mask.
// Carrying both Expr and FetchIDs is an error.
type BatchQuery struct {
	// Expr is the boolean query expression (search queries).
	Expr string
	// Prepared, when non-nil, is query.Prepare(Expr)'s value, carried by a
	// caller that holds it already (the front door's key cache) and only
	// read; nil has exec prepare Expr. Expr is the replica key either way.
	Prepared *query.Prepared
	// K is the query's top-k depth (<= 0 uses the cluster config's K).
	K int
	// ShardMask, when non-zero, restricts execution to the shards whose
	// bits are set; excluded shards appear in the result's Degraded mask
	// with ErrShardShed. Zero executes every shard.
	ShardMask uint64
	// FetchIDs, when non-empty, makes this query a document fetch: the
	// result's Docs holds the payloads of these global docIDs, in order.
	// Mutually exclusive with Expr.
	FetchIDs []uint32
	// WithDocs makes a search also fetch its merged top-k's documents:
	// Docs holds one entry per TopK entry, in rank order, and the fetch
	// work folds into PerShard, LinkBytes and the Degraded mask.
	WithDocs bool
}

// Queries builds the homogeneous batch: one search per expression, all at
// depth k.
func Queries(exprs []string, k int) []BatchQuery {
	qs := make([]BatchQuery, len(exprs))
	for i, e := range exprs {
		qs[i] = BatchQuery{Expr: e, K: k}
	}
	return qs
}

// errExprAndFetch rejects a BatchQuery that is both a search and a fetch.
var errExprAndFetch = errors.New("pool: BatchQuery carries both Expr and FetchIDs")

// liveCtx is the public entry points' nil-context default.
func liveCtx(ctx context.Context) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return ctx
}

// exec is the cluster's one request path. It runs the request (serve) on a
// per-request record from the cluster's pool, which holds everything the
// request needs below it and nothing it returns, and recycles the record.
// The answer goes into res, an empty result bound to storage for this
// cluster (newResult, or a BatchResult's slot); on an error res holds nothing
// the caller should read. shardWorkers is the shard fan-out width: 1 sweeps
// the shards on the calling goroutine, as a batch worker (which owns one
// in-flight query) must. Results are bit-identical at every width.
//
//boss:hotpath once per request: the record's get and put around serve.
func (cl *Cluster) exec(parent context.Context, q BatchQuery, shardWorkers int, res *ClusterResult) error {
	rec := cl.records.Get().(*queryRec)
	err := cl.serve(parent, rec, q, shardWorkers, res)
	rec.reset(cl.poison)
	cl.records.Put(rec)
	return err
}

// execFresh is exec into a fresh result: the single-request entry points.
func (cl *Cluster) execFresh(ctx context.Context, q BatchQuery, shardWorkers int) (*ClusterResult, error) {
	res := cl.newResult()
	if err := cl.exec(ctx, q, shardWorkers, res); err != nil {
		return nil, err
	}
	return res, nil
}

// serve is exec's body: it prepares the query unless the caller carried it
// prepared, checks its terms are indexed somewhere, sweeps it across the
// shards (sweep), folds the survivors into res (mergePartial) and, for
// WithDocs, chains into the fetch arm; fetch queries go straight there.
func (cl *Cluster) serve(parent context.Context, rec *queryRec, q BatchQuery, shardWorkers int, res *ClusterResult) error {
	ctx := liveCtx(parent)
	if len(q.FetchIDs) > 0 {
		if q.Expr != "" {
			return errExprAndFetch
		}
		return cl.fetch(ctx, rec, res, q.FetchIDs, q.ShardMask, shardWorkers)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	p := q.Prepared
	if p == nil {
		var err error
		if p, err = prepare(q.Expr); err != nil {
			return err
		}
	}
	// A term no shard indexes is an error, as on the single-node engines;
	// nearly every term is on the first shard asked. SPARSE reads impacts,
	// which a cluster's shards all carry or all lack (NewCluster builds none,
	// NewSingle's index may), so a SPARSE term its first holder keeps without
	// them is refused here: a refusal on the shards would count against their
	// breakers.
	for _, term := range p.Terms {
		si := slices.IndexFunc(cl.shards, func(idx *index.Index) bool { return holds(idx, term) })
		if si < 0 {
			return fmt.Errorf("pool: term %q not indexed on any shard", term)
		}
		if p.DNF == nil && !cl.shards[si].List(term).HasImpacts() {
			return fmt.Errorf("pool: term %q: %w", term, core.ErrNoImpacts)
		}
	}
	k := cl.depth(q.K)
	rec.sizeSlab(k)
	outs := cl.sweep(ctx, shardWork{Plan: p.Plan, k: k, qkey: mem.StableKey(q.Expr), rec: rec}, q.ShardMask, shardWorkers)
	// A context that died mid-sweep fails the query, whatever shards ran.
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := cl.mergePartial(outs, k, res); err != nil || !q.WithDocs {
		return err
	}
	for _, e := range res.TopK {
		rec.hits = append(rec.hits, e.DocID)
	}
	return cl.fetch(ctx, rec, res, rec.hits, q.ShardMask, shardWorkers)
}

// sweep is the one shard fan-out, for searches and fetches alike: it runs
// w on every shard under the front-door mask with the full resilience
// machinery (runShard), on shardWorkers goroutines through ForEach, and
// returns the per-shard outcomes, in shard order, in the record's outs. The
// record carries the sweep to ForEach (sweepShard), so no closure is built.
//
//boss:hotpath once per request: the shard fan-out.
func (cl *Cluster) sweep(ctx context.Context, w shardWork, mask uint64, shardWorkers int) []shardOut {
	rec := w.rec
	rec.ctx, rec.work, rec.mask = ctx, w, mask
	ForEach(ctx, len(rec.outs), shardWorkers, rec.sweepFn)
	rec.ctx, rec.work = nil, shardWork{}
	return rec.outs
}

// newResult is an empty result sized for this cluster: PerShard and the
// records it points into.
func (cl *Cluster) newResult() *ClusterResult {
	n := len(cl.shards)
	return &ClusterResult{PerShard: make([]*perf.Metrics, n), metrics: make([]perf.Metrics, n)}
}

// depth resolves a query's top-k depth (<= 0 means the config's K).
func (cl *Cluster) depth(k int) int {
	if k <= 0 {
		return cl.cfg.K
	}
	return k
}

// strict restores the contract of the entry points that predate
// degradation: any failed shard fails the query, first shard first.
func strict(res *ClusterResult, err error) (*ClusterResult, error) {
	if err != nil {
		return nil, err
	}
	for _, e := range res.ShardErrs {
		if e != nil {
			return nil, e
		}
	}
	return res, nil
}

// Search fans a query out to every node and merges the local top-k lists.
// Shards run concurrently on a bounded worker pool (Config.Workers, default
// GOMAXPROCS). Any shard failure fails the query.
func (cl *Cluster) Search(expr string, k int) (*ClusterResult, error) {
	return cl.searchStrict(expr, k, cl.workers(len(cl.shards)))
}

// SearchSerial is Search with the shards visited one at a time on the
// calling goroutine: the baseline the wall-clock benchmarks compare the
// fan-out to.
func (cl *Cluster) SearchSerial(expr string, k int) (*ClusterResult, error) {
	return cl.searchStrict(expr, k, 1)
}

// searchStrict is Search and SearchSerial at shard width shardWorkers.
//
//boss:ctx-root the context-free entry points' root; SearchCtx takes the caller's.
func (cl *Cluster) searchStrict(expr string, k, shardWorkers int) (*ClusterResult, error) {
	return strict(cl.execFresh(context.Background(), BatchQuery{Expr: expr, K: k}, shardWorkers))
}

// SearchCtx is Search with deadlines, retries, circuit breaking, and
// graceful degradation: surviving shards' top-k merge into a partial
// result whose Degraded mask and ShardErrs name the missing shards. The
// query errors only when the context dies or every shard fails.
func (cl *Cluster) SearchCtx(ctx context.Context, expr string, k int) (*ClusterResult, error) {
	return cl.execFresh(ctx, BatchQuery{Expr: expr, K: k}, cl.workers(len(cl.shards)))
}

// BatchResult is the outcome of a pipelined query batch, in storage the
// caller owns: SearchBatchQueries overwrites it on every call and keeps its
// backing arrays, so a BatchResult reused across batches costs its batches
// nothing. Of each result, only TopK and Docs are fresh per call and the
// caller's to keep; everything else — the results themselves, PerShard and
// the metrics it points to, ShardErrs, ServedBy, Errs — is overwritten by the
// next call on the same BatchResult. The zero value is ready to use; a
// BatchResult serves one call at a time.
type BatchResult struct {
	// Results holds one ClusterResult per input query, in input order; the
	// zero ClusterResult where the matching Errs entry is non-nil.
	Results []ClusterResult
	// Errs holds one entry per input query (nil for successes).
	Errs []error
	// Err is the first error in input order (remaining queries still run).
	Err error

	// The per-batch slabs behind every result: query qi's shard si is entry
	// qi*shards + si of each (bind).
	perShard  []*perf.Metrics
	metrics   []perf.Metrics
	shardErrs []error
	servedBy  []int

	// The call in flight, which runQuery reads. run is runQuery, bound once,
	// so handing it to ForEach allocates nothing.
	cl  *Cluster
	ctx context.Context
	qs  []BatchQuery
	run func(qi int)
}

// SearchBatchQueries pipelines a batch across the cluster into br: each
// worker owns one in-flight query and sweeps it across all shards, so
// different queries occupy different nodes concurrently. Queries are
// heterogeneous — per-query depths, front-door shard masks, searches with or
// without documents, fetches — and per-query results match the single-query
// entry points. A shard failure degrades that query's result; a dead context
// fails the remaining queries promptly. The workers are ForEach's: the
// calling goroutine and parked helpers, so a warm batch starts no goroutine,
// and one through a reused br allocates only its answers — a TopK per
// non-empty ranking and a fetch's Docs. It is the surface the front-door
// serving tier flushes its coalesced batches into.
//
//boss:hotpath once per batch: binding the results, the hand-out and the error scan.
func (cl *Cluster) SearchBatchQueries(ctx context.Context, qs []BatchQuery, br *BatchResult) {
	br.bind(cl, ctx, qs)
	dispatched := ForEach(br.ctx, len(qs), cl.workers(len(qs)), br.run)
	for qi := dispatched; qi < len(qs); qi++ {
		br.Results[qi], br.Errs[qi] = ClusterResult{}, br.ctx.Err()
	}
	br.Err = nil
	for _, err := range br.Errs {
		if err != nil {
			br.Err = err
			break
		}
	}
	br.cl, br.ctx, br.qs = nil, nil, nil
}

// bind readies br for a batch of qs on cl under ctx (nil: no deadline):
// every slice sized and cleared, in the backing arrays it has when they are
// large enough, and every result an empty one bound to its share of the
// slabs.
func (br *BatchResult) bind(cl *Cluster, ctx context.Context, qs []BatchQuery) {
	n, shards, replicated := len(qs), len(cl.shards), cl.Replicas() > 1
	br.Results, br.Errs = sized(br.Results, n), sized(br.Errs, n)
	br.perShard, br.metrics = sized(br.perShard, n*shards), sized(br.metrics, n*shards)
	br.shardErrs = sized(br.shardErrs, n*shards)
	if replicated {
		br.servedBy = sized(br.servedBy, n*shards)
	}
	for qi := range br.Results {
		lo, hi := qi*shards, (qi+1)*shards
		res := &br.Results[qi]
		res.PerShard, res.metrics, res.errs = br.perShard[lo:hi:hi], br.metrics[lo:hi:hi], br.shardErrs[lo:hi:hi]
		if replicated {
			res.served = br.servedBy[lo:hi:hi]
		}
	}
	br.cl, br.ctx, br.qs = cl, liveCtx(ctx), qs
	if br.run == nil {
		br.run = br.runQuery
	}
}

// sized returns s resized to n zero values, in its own backing array when
// that holds n.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// runQuery is one batch worker's query: exec at shard width 1 into the
// query's slot.
func (br *BatchResult) runQuery(qi int) {
	if err := br.cl.exec(br.ctx, br.qs[qi], 1, &br.Results[qi]); err != nil {
		br.Results[qi], br.Errs[qi] = ClusterResult{}, err
	}
}
