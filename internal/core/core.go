// Package core implements the paper's primary contribution: the BOSS
// accelerator model. A BOSS core executes the full first-stage search
// pipeline — block fetch with query-condition and score-based skipping,
// programmable decompression, pipelined multi-term intersection, a WAND
// union module, BM25 scoring, and a hardware top-k queue — while charging
// every byte of memory traffic and every pipeline cycle to the query's
// metrics. The decode path runs through internal/decomp's programmable
// decompression module, i.e. the same configurable datapath the paper
// synthesizes.
//
// Three early-termination configurations reproduce the paper's ablations:
// BOSS (block-level ET + WAND), BOSS-block-only (Figure 14), and
// BOSS-exhaustive (Figure 13).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"boss/internal/cache"
	"boss/internal/compress"
	"boss/internal/decomp"
	"boss/internal/index"
	"boss/internal/mem"
	"boss/internal/perf"
	"boss/internal/query"
	"boss/internal/score"
	"boss/internal/sim"
	"boss/internal/topk"
)

// Hardware parameters of a BOSS core (Table I: 1 GHz, 4 decompression
// modules, 1 intersection module with 3 units, 1 union module, 4 scoring
// modules, 1 top-k module).
const (
	clockGHz         = 1.0
	decompUnits      = 4
	scoringUnits     = 4
	blockFetchCycles = 2  // metadata inspection per examined block
	fetchQueueDepth  = 16 // outstanding block requests per block-fetch module
	// metaChunkEntries is how many 19 B block-metadata records the block
	// fetch module prefetches per memory access (metadata is contiguous,
	// so skip records stream in chunks rather than one record at a time).
	metaChunkEntries = 32
	resultEntryBytes = 8
	pipelineDrain    = 64 // cycles to flush the pipeline per query
)

// DefaultK is the paper's default top-k depth.
const DefaultK = 1000

// ErrDeadlineExceeded reports that a query's context expired while the
// pipeline was still fetching blocks. It wraps the causing
// context.DeadlineExceeded, so both errors.Is targets match.
var ErrDeadlineExceeded = errors.New("core: query deadline exceeded")

// ErrNoImpacts reports a sparse-dot (Q7) query against a posting list
// built without impact payloads (index.BuildOptions.Impacts).
var ErrNoImpacts = errors.New("core: posting list carries no quantized impacts (index built without Impacts)")

// maxFetchAttempts bounds inline re-reads of a block after injected
// transient faults before the run gives up (device firmware retry
// budget).
const maxFetchAttempts = 4

// Options selects the early-termination features, reproducing the paper's
// ablation variants.
type Options struct {
	// BlockET enables the block-fetch module's score-estimation unit
	// (BlockMaxWAND/interval-style per-block skipping for unions).
	BlockET bool
	// DocET enables the union module's WAND document-level skipping.
	DocET bool
	// FixedPoint scores in Q16.16 as the synthesized hardware does
	// (default float64 for bit-exact parity with the software engines).
	FixedPoint bool
	// SpillIntermediates disables the pipelined multi-term optimization:
	// each intersection pass round-trips its intermediate result through
	// memory, IIU-style (the ablation for DESIGN.md's pipeline choice).
	SpillIntermediates bool
	// HostTopK disables the hardware top-k module: the full scored result
	// list crosses the interconnect for host-side selection (the ablation
	// for the top-k design choice).
	HostTopK bool
}

// DefaultOptions is full BOSS: both ET mechanisms on.
func DefaultOptions() Options { return Options{BlockET: true, DocET: true} }

// ExhaustiveOptions is the paper's BOSS-exhaustive ablation: multi-term
// pipelining and hardware top-k, but no early termination.
func ExhaustiveOptions() Options { return Options{} }

// BlockOnlyOptions is the paper's BOSS-block-only ablation (Figure 14).
func BlockOnlyOptions() Options { return Options{BlockET: true} }

// Accelerator is a BOSS device model over one index shard.
//
// An Accelerator is stateless after construction: Exec takes all mutable
// per-query state from a run record it owns exclusively for the duration of
// the query and only reads the (immutable) index and options. It is
// therefore safe — and deterministic — to call Exec concurrently from many
// goroutines, which is how the pool's parallel shard fan-out and the
// facade's Accelerator.SearchBatch drive it. TestAcceleratorParallelDeterminism enforces this contract under
// the race detector.
//
// Run records recycle through a sync.Pool; every slice and counter in a
// pooled record is reset or fully overwritten before reuse, so recycling
// changes allocation behaviour only, never results.
type Accelerator struct {
	idx  *index.Index
	opts Options
	runs sync.Pool // of *run

	// cache is the cross-query decoded-block cache shared by every run (and,
	// in a cluster, by every shard's accelerator). Nil is the cache that
	// never admits: every block is decoded into a recycled slab the run
	// holds until it ends.
	cache *cache.Cache

	// fault, when non-nil, injects the attached FaultPlan's read errors
	// into every block fetch. Nil keeps the fetch path byte-identical
	// to the fault-free model.
	fault *mem.Injector
}

// New returns a BOSS accelerator with the given options.
func New(idx *index.Index, opts Options) *Accelerator {
	return &Accelerator{idx: idx, opts: opts}
}

// NewCached returns an accelerator that serves decoded blocks from the
// given cross-query cache (nil behaves exactly like New).
func NewCached(idx *index.Index, opts Options, c *cache.Cache) *Accelerator {
	return &Accelerator{idx: idx, opts: opts, cache: c}
}

// Cache returns the attached decoded-block cache, or nil.
func (a *Accelerator) Cache() *cache.Cache { return a.cache }

// SetFault attaches a fault injector (nil restores the pristine model).
// Not safe concurrently with Exec; meant for setup time and chaos tests.
func (a *Accelerator) SetFault(inj *mem.Injector) { a.fault = inj }

// Result is one query's outcome in storage of its own, what the bench-only
// adapters RunCtx, RunSparseCtx and RunSparse return.
type Result struct {
	TopK []topk.Entry
	M    *perf.Metrics
}

// blockRec is one block of a posting list that the run has examined: its
// metadata record has been charged, and once the block is fetched the record
// carries its decoded form by value — docs/tfs alias the slab of the pinned
// entry ent, which releaseRun unpins. Nothing that escapes a run references
// the slab (the candidate table copies tfs, results copy topk entries). With
// ent nil the block was examined on metadata only.
type blockRec struct {
	b    int
	docs []uint32
	tfs  []uint32
	ent  *cache.Entry
}

// listState gathers all per-(run, posting-list) bookkeeping behind a single
// map probe: the list's block table in the accelerator's cache, the examined
// blocks, and the stream's decode-cycle total (each posting-list stream owns
// a decompression unit — the paper's intra-query limitation).
type listState struct {
	// tab is resolved on the run's first touch of the list (stateFor), so a
	// block lookup is an index, not a probe; nil under a nil cache.
	tab *cache.Table
	// recs holds one record per examined block, ascending by block index;
	// len(recs) is therefore the list's metadata-prefetch count.
	recs    []blockRec
	cycles  float64
	decoded bool // the stream ran its decompression unit at least once
}

// find returns the index of block b's record, or the index it would be
// inserted at. Every operator walks a list's blocks in ascending order, so
// the record is the last one or lies beyond it; the binary search serves the
// one non-monotone access there is, a mixed query whose later conjunct
// re-scans a shared term from its first block.
//
//boss:hotpath one call per examined block.
func (ls *listState) find(b int) (int, bool) {
	n := len(ls.recs)
	if n == 0 || ls.recs[n-1].b < b {
		return n, false
	}
	if ls.recs[n-1].b == b {
		return n - 1, true
	}
	lo, hi := 0, n-1 // recs[n-1].b > b, so the answer is in [0, n-1]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ls.recs[mid].b < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, ls.recs[lo].b == b
}

// run tracks the state of one query execution on a BOSS core.
type run struct {
	acc *Accelerator
	m   *perf.Metrics
	sel *topk.ShiftRegisterQueue

	decoders [compress.NumSchemes]*decomp.Module
	lists    map[*index.PostingList]*listState
	lsFree   []*listState // cleared listState records awaiting reuse

	fetchCycles float64
	mergeCycles float64
	scoreOps    float64
	topkInserts float64

	nTerms int

	// ctx, when non-nil, is the query's deadline/cancellation context,
	// checked once per block fetch. err latches the first failure on
	// any execution path; once set, the paths unwind without further
	// fetches and Exec returns it instead of a Result.
	ctx context.Context
	err error

	// The query plan (plan, resolveSparse): every conjunct's posting lists back
	// to back in one arena — conjunct i is planLists[planEnd[i-1]:planEnd[i]],
	// and a pure union's or a sparse query's arena is its stream list as it
	// stands — plus the distinct lists among them, whose count sizes the
	// scoring stage. releaseRun clears them: they pin posting lists.
	planLists []*index.PostingList
	planEnd   []int
	distinct  []*index.PostingList

	// Cursor scratch (cursor.go): one cursor per posting list of the operator
	// that is running — the union, the sparse driver, or one conjunct's
	// intersection passes — plus the union module's pointer views over it:
	// the live streams, the ones covering the current interval, and that
	// interval's sorted frontier (scanInterval). Reused across pooled runs;
	// releaseRun zeroes what the run wrote.
	cursors  []cursor
	streams  []*cursor
	covering []*cursor
	frontier []*cursor

	// The intersection module's candidate table (intersect.go): matched
	// docIDs in candDocs and, in candTFs, one row of n tfs per candidate,
	// n being the conjunct's list count and slot t its t-th list in stable DF
	// order — the order intersect leaves the conjunct's stretch of planLists
	// in. A mixed query's conjunct outputs lie back to back in the two
	// arrays, located by conj. A candidate is 4 + 4n bytes of plain integers:
	// nothing in the table can pin a list or a block, and releaseRun only
	// truncates it. slots and seen are scoring scratch (scoreSlots,
	// unionConjuncts).
	candDocs []uint32
	candTFs  []uint32
	conj     []conjRows
	slots    []slot
	seen     []uint64

	// The sparse driver's docID window (sparse.go): per offset from the
	// window's first docID, the Q16.16 sum and the count of the essential
	// postings on that document, and a bitmap of the offsets holding any.
	// Arrays, so they come with the record and the hot loop allocates
	// nothing; the driver leaves all three zero whenever it returns.
	winSum  [sparseSpan]score.Fixed
	winCnt  [sparseSpan]uint8
	winBits [sparseSpan / 64]uint64
}

// newRun takes a recycled run record (or builds a first one) and readies it
// for a query that charges m. Planning fills in nTerms.
//
//boss:pool-escapes releaseRun returns the run to a.runs via runDNF/runSparse's defer.
func (a *Accelerator) newRun(k int, m *perf.Metrics) *run {
	r, ok := a.runs.Get().(*run)
	if !ok {
		r = &run{
			acc:   a,
			sel:   topk.NewShiftRegister(k),
			lists: make(map[*index.PostingList]*listState),
		}
	}
	r.begin(k, m)
	return r
}

// begin readies a run record for a query that charges m, which it zeroes.
func (r *run) begin(k int, m *perf.Metrics) {
	*m = perf.Metrics{}
	r.m = m
	r.sel.Reset(k)
	r.nTerms = 0
	r.ctx = nil
	r.err = nil
}

// releaseRun returns a finished run's record to its pool.
func (a *Accelerator) releaseRun(r *run) {
	r.release()
	a.runs.Put(r)
}

// release unpins a finished run's decoded blocks and readies the record for
// reuse. The decoder modules stay attached: reusing a warm module is exactly
// what keeps decode at zero allocations.
func (r *run) release() {
	a := r.acc
	for _, ls := range r.lists {
		for i := range ls.recs {
			a.cache.Release(ls.recs[i].ent) // nil for a block examined on metadata only
		}
		clear(ls.recs) // a free listState must not pin slabs
		ls.recs = ls.recs[:0]
		ls.tab = nil // nor carry a table past its run
		ls.cycles = 0
		ls.decoded = false
		r.lsFree = append(r.lsFree, ls)
	}
	clear(r.lists)
	r.m = nil
	r.ctx = nil
	r.err = nil
	// Cursors hold posting lists and alias decoded blocks (cache slabs
	// included), and the plan holds posting lists: zero them so a pooled run
	// never pins a previous query's lists or blocks. Each release clears what
	// its run wrote (openCursors clears the cursors an earlier conjunct left),
	// so the capacity beyond stays zero. The candidate table and the scoring
	// scratch hold integers and floats only; truncating them is enough.
	clear(r.cursors)
	r.cursors = r.cursors[:0]
	clear(r.planLists)
	r.planLists, r.planEnd = r.planLists[:0], r.planEnd[:0]
	clear(r.distinct)
	r.distinct = r.distinct[:0]
	r.candDocs, r.candTFs, r.conj = r.candDocs[:0], r.candTFs[:0], r.conj[:0]
	r.fetchCycles, r.mergeCycles, r.scoreOps, r.topkInserts = 0, 0, 0, 0
}

// Exec executes a plan with the given top-k depth under a context (nil means
// none): a normal form on the boolean pipeline, a term set (nil DNF) on the
// sparse-dot operator, which opens one cursor per term — a sparse query is a
// set (the parser keeps a repeated term's first occurrence only). The pipeline checks for
// cancellation once per block fetch and returns an error wrapping
// ErrDeadlineExceeded (deadline) or context.Canceled (cancellation) instead
// of a result. The term limit is the host's, held by query.Prepare; a plan is
// only read, so callers that fan one query out to several accelerators
// (pool.Cluster) share it.
//
// The output is the caller's: Exec zeroes *m and charges the query's work to
// it, and appends the top-k, best first, to dst, returning the extended
// slice. Nothing it returns aliases the run record, so a warm run allocates
// nothing beyond what growing dst takes. On error *m holds whatever the run
// charged before it failed, and dst comes back unextended.
func (a *Accelerator) Exec(ctx context.Context, pl query.Plan, k int, m *perf.Metrics, dst []topk.Entry) ([]topk.Entry, error) {
	if pl.DNF == nil {
		return a.runSparse(ctx, pl.Terms, k, m, dst)
	}
	return a.runDNF(ctx, pl.DNF, k, m, dst)
}

// exec is Exec into fresh storage, as a Result whose TopK is never nil.
func (a *Accelerator) exec(ctx context.Context, pl query.Plan, k int) (Result, error) {
	m := perf.NewMetrics()
	top, err := a.Exec(ctx, pl, k, m, []topk.Entry{})
	if err != nil {
		return Result{}, err
	}
	return Result{TopK: top, M: m}, nil
}

// RunCtx is Exec on a syntax tree's plan, into fresh storage. bench/ is its
// only caller; the next benchmark PR deletes it.
func (a *Accelerator) RunCtx(ctx context.Context, node *query.Node, k int) (Result, error) {
	return a.exec(ctx, node.Plan(), k)
}

// RunSparseCtx is Exec on a sparse term set, into fresh storage. bench/ is
// its only caller; the next benchmark PR deletes it.
func (a *Accelerator) RunSparseCtx(ctx context.Context, terms []string, k int) (Result, error) {
	return a.exec(ctx, query.Plan{Terms: terms}, k)
}

// RunSparse is RunSparseCtx without a context. bench/ is its only caller;
// the next benchmark PR deletes it.
func (a *Accelerator) RunSparse(terms []string, k int) (Result, error) {
	return a.exec(nil, query.Plan{Terms: terms}, k)
}

func (a *Accelerator) runDNF(ctx context.Context, dnf [][]string, k int, m *perf.Metrics, dst []topk.Entry) ([]topk.Entry, error) {
	if ctx != nil {
		if cause := ctx.Err(); cause != nil {
			return dst, ctxError(cause)
		}
	}
	r := a.newRun(k, m)
	defer a.releaseRun(r)
	r.ctx = ctx
	if err := r.plan(dnf); err != nil {
		return dst, err
	}

	switch {
	case r.allSingleTerm():
		// Pure union (or a single term): the union module path with both
		// ET levels. The plan arena is the stream list.
		r.union(r.planLists)
	case len(r.planEnd) == 1:
		// Pure conjunction: the pipelined intersection path.
		if r.intersect(r.planLists); r.err == nil {
			r.scoreConjunct()
		}
	default:
		// Mixed query: intersections first (the paper's execution order),
		// then an on-chip union of the conjunct outputs.
		r.mixed()
	}
	if r.err != nil {
		return dst, r.err
	}
	return r.finish(dst), nil
}

// finish charges a successful run's result hand-off and pipeline time, and
// appends its top-k to dst. The hardware top-k module hands exactly k
// entries to the host over the shared interconnect; nothing is staged in
// SCM. With the module ablated (HostTopK), every scored document crosses
// instead.
func (r *run) finish(dst []topk.Entry) []topk.Entry {
	outBytes := int64(r.sel.Len()) * resultEntryBytes
	if r.acc.opts.HostTopK {
		outBytes = r.m.DocsEvaluated * resultEntryBytes
	}
	r.m.AddHostWrite(outBytes, mem.CatStoreResult)
	r.m.AddCompute(r.computeTime())
	return r.sel.AppendResults(dst)
}

// plan resolves a DNF's terms to posting lists, checking they exist, into
// the run's plan scratch. Nothing here allocates once the scratch has grown:
// a query holds at most query.MaxTerms distinct lists, so the repeat probe is
// a scan, not a map.
func (r *run) plan(dnf [][]string) error {
	for _, conj := range dnf {
		for _, term := range conj {
			pl := r.acc.idx.List(term)
			if pl == nil {
				return fmt.Errorf("core: term %q not indexed", term)
			}
			r.addPlanned(pl)
		}
		r.planEnd = append(r.planEnd, len(r.planLists))
	}
	r.nTerms = len(r.distinct)
	return nil
}

// addPlanned appends pl to the plan arena, noting it if it is a new list.
func (r *run) addPlanned(pl *index.PostingList) {
	r.planLists = append(r.planLists, pl)
	for _, seen := range r.distinct {
		if seen == pl {
			return
		}
	}
	r.distinct = append(r.distinct, pl)
}

// conjunct returns the i-th planned conjunct's posting lists.
func (r *run) conjunct(i int) []*index.PostingList {
	lo := 0
	if i > 0 {
		lo = r.planEnd[i-1]
	}
	return r.planLists[lo:r.planEnd[i]]
}

// allSingleTerm reports whether every planned conjunct is a single term.
func (r *run) allSingleTerm() bool {
	for i, end := range r.planEnd {
		if end != i+1 {
			return false
		}
	}
	return true
}

// computeTime assembles the pipeline-stage roofline: the busiest stage
// bounds throughput because all stages overlap.
func (r *run) computeTime() sim.Duration {
	// Decompression: one unit per stream, at most decompUnits concurrent.
	// Only streams that actually decoded count toward unit contention (a
	// list that was examined but never fetched holds no unit).
	var decode float64
	var total, max float64
	streams := 0
	for _, ls := range r.lists {
		if !ls.decoded {
			continue
		}
		streams++
		total += ls.cycles
		if ls.cycles > max {
			max = ls.cycles
		}
	}
	if streams <= decompUnits {
		decode = max
	} else {
		decode = math.Max(max, total/decompUnits)
	}
	units := r.nTerms
	if units > scoringUnits {
		units = scoringUnits
	}
	if units < 1 {
		units = 1
	}
	scoreStage := r.scoreOps / float64(units)
	stage := math.Max(decode, math.Max(r.fetchCycles, math.Max(r.mergeCycles, math.Max(scoreStage, r.topkInserts))))
	return sim.Duration((stage + pipelineDrain) / clockGHz * float64(sim.Nanosecond))
}

// stateFor returns (creating on first touch) the run's bookkeeping record
// for a posting list, resolving the list's block table on the way: one
// registry probe per (run, list). Cleared records recycle through lsFree so
// steady-state queries allocate nothing.
//
//boss:hotpath one call per (list, pass) on each execution path.
func (r *run) stateFor(pl *index.PostingList) *listState {
	ls := r.lists[pl]
	if ls == nil {
		if n := len(r.lsFree); n > 0 {
			ls = r.lsFree[n-1]
			r.lsFree = r.lsFree[:n-1]
		} else {
			ls = new(listState) //boss:escape-ok free-list miss: one listState per first-touched list, recycled via lsFree
		}
		ls.tab = r.acc.cache.Table(pl.ID(), cache.ClassPosting, len(pl.Blocks))
		r.lists[pl] = ls
	}
	return ls
}

// chargeMeta accounts the sequential metadata read of one examined block
// (once per block per query).
//
//boss:hotpath one call per examined block, skipped or fetched.
func (r *run) chargeMeta(ls *listState, b int) {
	if i, seen := ls.find(b); !seen {
		r.examine(ls, i, b)
	}
}

// examine records block b as examined at index i of ls.recs (from find) and
// charges its metadata read.
//
//boss:hotpath one call per examined block, skipped or fetched.
func (r *run) examine(ls *listState, i, b int) {
	// The first record of each chunk triggers one streaming prefetch of
	// metaChunkEntries records.
	if len(ls.recs)%metaChunkEntries == 0 {
		r.m.AddSeqRead(metaChunkEntries*index.BlockMetaBytes, mem.CatLoadList)
	}
	ls.recs = append(ls.recs, blockRec{})
	copy(ls.recs[i+1:], ls.recs[i:])
	ls.recs[i] = blockRec{b: b}
	r.fetchCycles += blockFetchCycles
}

// decoder returns the run's decompression module for a scheme, programmed
// with the scheme's built-in configuration on first use (modeling
// reconfiguration at init()) and kept with the pooled run record.
func (r *run) decoder(s compress.Scheme) *decomp.Module {
	d := r.decoders[s]
	if d == nil {
		d = decomp.NewModuleFor(s)
		r.decoders[s] = d
	}
	return d
}

// fetchBlock loads a block, charging traffic and cycles once per query, and
// returns its decoded docIDs and tfs: views of the block's record, valid
// until releaseRun, which callers keep by value (cursor.load).
//
// The modeled device has no DRAM block cache, so what a block costs does not
// depend on where its decoded form comes from: the cache is asked first, then
// every charge is made, and only then does a miss decode. Whether the entry
// was found or freshly published, one tail takes the decode cycles from it.
// Only host work differs.
//
// On any failure — expired context, injected device fault, checksum
// mismatch, decode error — it latches a typed error on the run (r.err)
// and returns ok false; callers unwind on it and Exec surfaces the error.
//
//boss:hotpath one call per block examined; the per-block fetch loop.
func (r *run) fetchBlock(ls *listState, pl *index.PostingList, b int) (docs, tfs []uint32, ok bool) {
	ri, seen := ls.find(b)
	if seen {
		if rec := &ls.recs[ri]; rec.ent != nil {
			return rec.docs, rec.tfs, true
		}
	}
	if r.ctx != nil {
		if cause := r.ctx.Err(); cause != nil {
			r.failCtx(cause)
			return nil, nil, false
		}
	}
	meta := &pl.Blocks[b]
	if !seen {
		r.examine(ls, ri, b)
	}
	// Nothing below touches ls.recs, so rec stays block b's record.
	rec := &ls.recs[ri]

	ch := r.acc.cache
	ent := ls.tab.Get(b)

	// BOSS fetches blocks in ascending docID order with look-ahead from
	// the metadata scan, so even post-skip fetches stream at sequential
	// bandwidth (Section V-B contrasts this with IIU's random access).
	// With a fault injector attached, the stream charge goes through the
	// fault-aware read (which may retry or fail the run); the nil branch
	// is the byte-identical pristine model.
	if inj := r.acc.fault; inj != nil {
		if f := chargeFaultyRead(inj, r.m, mem.StableKey(pl.Term), b, int64(meta.Length), mem.CatLoadList); f != mem.FaultNone {
			ch.Release(ent)
			r.failFault(f, pl, b)
			return nil, nil, false
		}
	} else {
		r.m.AddSeqRead(int64(meta.Length), mem.CatLoadList)
	}
	r.m.BlocksFetched++
	// The block-fetch module keeps a bounded number of requests in flight;
	// each windowful exposes one device read latency on the pipeline.
	if r.m.BlocksFetched%fetchQueueDepth == 0 {
		r.m.SerialFetchHops++
	}
	r.m.PostingsDecoded += int64(meta.Count)

	if ent == nil {
		if ent = r.decodeBlock(ls, pl, b); ent == nil {
			return nil, nil, false
		}
	}
	ls.cycles += float64(ent.Cycles())
	ls.decoded = true
	rec.ent, rec.docs, rec.tfs = ent, ent.Docs(), ent.Tfs()
	return rec.docs, rec.tfs, true
}

// decodeBlock is fetchBlock's miss arm: it checks the block's payload, runs
// the docID stream (delta-coded from the block's first docID) and then the tf
// stream through the decompression module into a reserved slab, and publishes
// the slab through the list's table with the cycles the two streams took. It
// returns the pinned entry to use — the cache's, or a caller-owned one when
// the cache does not admit it — or nil with a typed error latched on the run.
//
//boss:hotpath the decode arm of the per-block fetch loop.
func (r *run) decodeBlock(ls *listState, pl *index.PostingList, b int) *cache.Entry {
	meta := &pl.Blocks[b]
	payload := pl.Data[meta.Offset : meta.Offset+meta.Length]
	// Integrity gate: verify the payload CRC before decoding so real
	// corruption is detected and typed instead of silently scored (and
	// never published to the shared cache). Zero means unchecksummed.
	if meta.Checksum != 0 && index.ChecksumPayload(payload) != meta.Checksum {
		r.m.IntegrityFailures++
		r.failCorrupt(pl, b) //boss:escape-ok cold corrupt-block error path
		return nil
	}
	mod := r.decoder(pl.Scheme)
	ch := r.acc.cache
	n := int(meta.Count)
	e := ch.Reserve(n)
	docs, used, cyc1, err := mod.DecodeInto(e.DocsBuf(n), payload, n, meta.FirstDoc, true)
	if err != nil {
		ch.Release(e) // reserved, never published
		r.failDecode("decompression", pl, b, err)
		return nil
	}
	tfs, _, cyc2, err := mod.DecodeInto(e.TfsBuf(n), payload[used:], n, 0, false)
	if err != nil {
		ch.Release(e)
		r.failDecode("tf decompression", pl, b, err)
		return nil
	}
	return ls.tab.Publish(b, e, docs, tfs, int64(cyc1+cyc2))
}

// chargeFaultyRead streams one n-byte block from the device under the fault
// injector, retrying transient faults inline: the device firmware re-reads
// the block (each attempt re-charges its traffic) up to maxFetchAttempts
// times. It returns the fault the read stopped on — FaultNone once an attempt
// succeeds, FaultTransient when the attempts ran out — and the caller types
// the error. key and b identify the block to the fault plan.
//
//boss:hotpath the fault-aware arm of the posting and document block fetches.
func chargeFaultyRead(inj *mem.Injector, m *perf.Metrics, key uint64, b int, n int64, cat mem.Category) mem.Fault {
	if inj.Dead() {
		return mem.FaultDeviceDown
	}
	for attempt := uint32(0); ; attempt++ {
		m.AddSeqRead(n, cat)
		f := inj.BlockFault(key, uint32(b), attempt)
		switch f {
		case mem.FaultTransient:
			m.TransientRetries++
			if attempt+1 < maxFetchAttempts {
				continue // the firmware re-reads the block
			}
		case mem.FaultUncorrectable:
			// The device's own ECC/CRC detected an unrecoverable media
			// error — same detection path as a host-side checksum miss.
			m.IntegrityFailures++
		}
		return f
	}
}

// fail latches the first error of the run; later paths unwind on it.
//
//boss:hotpath called from the per-block fetch loop.
func (r *run) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// The fail* helpers build wrapped, typed errors. Outlined from the hot
// fetch path so it carries no fmt calls (hotpathalloc); they only run
// when a query is already failing.

func (r *run) failCtx(cause error) { r.fail(ctxError(cause)) }

// ctxError types a context failure: deadline expiries additionally wrap
// ErrDeadlineExceeded; plain cancellations propagate context.Canceled.
func ctxError(cause error) error {
	if errors.Is(cause, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrDeadlineExceeded, cause)
	}
	return cause
}

func (r *run) failCorrupt(pl *index.PostingList, b int) {
	r.fail(fmt.Errorf("core: list %q block %d: checksum mismatch: %w", pl.Term, b, mem.ErrMediaUncorrectable))
}

// failFault types the fault chargeFaultyRead stopped on.
func (r *run) failFault(f mem.Fault, pl *index.PostingList, b int) {
	switch f {
	case mem.FaultUncorrectable:
		r.fail(fmt.Errorf("core: list %q block %d: %w", pl.Term, b, mem.ErrMediaUncorrectable))
	case mem.FaultDeviceDown:
		r.fail(fmt.Errorf("core: list %q block %d: %w", pl.Term, b, mem.ErrDeviceDown))
	default: // mem.FaultTransient, out of attempts
		r.fail(fmt.Errorf("core: list %q block %d: retries exhausted: %w", pl.Term, b, mem.ErrTransientRead))
	}
}

func (r *run) failDecode(what string, pl *index.PostingList, b int, err error) {
	r.fail(fmt.Errorf("core: %s of list %q block %d failed: %w", what, pl.Term, b, err))
}

// cutoff returns the current top-k threshold (-Inf while not full).
func (r *run) cutoff() float64 { return r.sel.Threshold() }

// chargeScored accounts docs documents scored with BM25 over ops matched
// postings in all: one scoring op per posting, and per document one top-k
// broadcast and one 4 B normalizer read. Scored docIDs ascend within a query,
// so the normalizer stream is prefetch-friendly and charged at sequential
// bandwidth — docs accesses of it, which is what AddSeqRead per document
// counted. (The sparse family reads impacts and charges no normalizer.)
//
//boss:hotpath one call per scored interval or candidate table.
func (r *run) chargeScored(docs, ops int64) {
	r.scoreOps += float64(ops)
	r.topkInserts += float64(docs)
	r.m.DocsEvaluated += docs
	r.m.SeqReadBytes += docs * index.DocNormBytes
	r.m.Cat[mem.CatLoadScore] += docs * index.DocNormBytes
	r.m.CatAcc[mem.CatLoadScore] += docs
}
