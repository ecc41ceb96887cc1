// Command verify is the repository's differential oracle: one seeded query
// stream through every engine and deployment shape, each answer held to
// internal/oracle's brute-force reference. It prints the matrix's check
// counts, a row per shape and a column per request family, and exits
// nonzero on any mismatch; its test runs it at the defaults.
//
// Rows: the software engine; the IIU model; the BOSS core under each
// early-termination variant in float64 and Q16.16, cold and cache-warm; the
// cluster at 1 and -shards shards × 1 or 2 replicas × cache off or on,
// through Search and SearchBatchQueries; the front door over the cluster;
// the facade's Index, Accelerator, ReadIndex (the reference index written
// and read back), ShardedIndex.SearchCtx and both Servers.
//
// Families: search (Q1–Q6), SPARSE (Q7 over the impact-quantized index) and
// fetch (each query's reference top-k by id, and chained onto a search where
// a surface can), every payload hashed against corpus.DocName/DocText.
// Answers from a row whose arithmetic is the reference's must equal it bit
// for bit (oracle.Same, the Q16.16 core rows against its fixed-point arm),
// the others within 1e-9 (oracle.Agree); rows over the same shards must
// also equal each other bit for bit. A front door gets each query three
// times, as sampled, with its operands reversed and at half the depth, and
// its admission and coalescing counts must match. Cluster shards carry no
// impacts, so each row over a cluster must refuse SPARSE with
// core.ErrNoImpacts ("refused").
//
// Usage:
//
//	verify -scale 0.015 -queries 12 -k 25 -seed 1 -shards 4
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"

	"boss"
	"boss/internal/cache"
	"boss/internal/compress"
	"boss/internal/core"
	"boss/internal/corpus"
	"boss/internal/engine"
	"boss/internal/front"
	"boss/internal/iiu"
	"boss/internal/index"
	"boss/internal/oracle"
	"boss/internal/perf"
	"boss/internal/pool"
	"boss/internal/query"
	"boss/internal/topk"
)

// options are the command's flags.
type options struct {
	scale              float64
	queries, k, shards int
	seed               int64
}

// defaults are the flags' defaults, what the test runs.
var defaults = options{scale: 0.015, queries: 12, k: 25, seed: 1, shards: 4}

func main() {
	o := defaults
	flag.Float64Var(&o.scale, "scale", o.scale, "corpus scale in (0,1]")
	flag.IntVar(&o.queries, "queries", o.queries, "queries per query type, Q1–Q7")
	flag.IntVar(&o.k, "k", o.k, "top-k depth")
	flag.Int64Var(&o.seed, "seed", o.seed, "query stream seed")
	flag.IntVar(&o.shards, "shards", o.shards, "shard count of the wide cluster rows (the narrow ones have 1)")
	flag.Parse()
	m, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "verify:", err)
		os.Exit(1)
	}
	fmt.Print(m)
	if m.failed() > 0 {
		os.Exit(1)
	}
}

// The request families: the matrix's columns.
const (
	search = iota
	sparse
	fetch
	families
)

var familyNames = [families]string{"search", "SPARSE", "fetch"}

// cell tallies one row × family: the checks made, how many of them asserted
// a refusal, and the first failures.
type cell struct {
	checks, refused, failed int
	first                   []string
}

// check counts one assertion, keeping a message if it fails.
func (c *cell) check(ok bool, format string, args ...any) bool {
	c.checks++
	if !ok {
		c.failed++
		if len(c.first) < 3 {
			c.first = append(c.first, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

func (c *cell) String() string {
	switch {
	case c.checks == 0:
		return "-"
	case c.failed > 0:
		return fmt.Sprintf("%d/%d FAIL", c.failed, c.checks)
	case c.refused > 0:
		return fmt.Sprintf("%d refused", c.refused)
	}
	return strconv.Itoa(c.checks)
}

// row is one engine or deployment shape. Its answers must equal the
// reference bit for bit when exact, within 1e-9 otherwise, and bit for bit
// every earlier answer of a row with the same peer; fixed holds its searches
// to the Q16.16 reference. A row that refuses must refuse every SPARSE query.
type row struct {
	name                  string
	exact, fixed, refuses bool
	peer                  string
	cells                 [families]cell
}

type matrix struct {
	header string
	rows   []*row
}

func (m *matrix) add(r row) *row {
	m.rows = append(m.rows, &r)
	return &r
}

func (m *matrix) String() string {
	var w, fails strings.Builder
	fmt.Fprintf(&w, "%s\n\n%-44s %12s %12s %12s\n", m.header, "row", familyNames[0], familyNames[1], familyNames[2])
	checks := 0
	for _, r := range m.rows {
		fmt.Fprintf(&w, "%-44s %12s %12s %12s\n", r.name, &r.cells[0], &r.cells[1], &r.cells[2])
		for f, c := range r.cells {
			checks += c.checks
			for _, msg := range c.first {
				fmt.Fprintf(&fails, "FAIL %s × %s: %s\n", r.name, familyNames[f], msg)
			}
		}
	}
	fmt.Fprintf(&w, "%s\n%d checks, %d failed\n", fails.String(), checks, m.failed())
	return w.String()
}

func (m *matrix) failed() (n int) {
	for _, r := range m.rows {
		for _, c := range r.cells {
			n += c.failed
		}
	}
	return n
}

// item is one query of the stream with its reference answers.
type item struct {
	expr, twin string          // twin: expr with every operand list reversed, the same query
	key        string          // query.Prepared.Key, what a front door coalesces on
	want       [2][]topk.Entry // oracle.Eval's top-k in float64, then in Q16.16
	ids        []uint32        // want[0]'s documents: what the fetch family asks for
}

// stream is the query stream and what the judge holds answers to.
type stream struct {
	o              options
	c              *corpus.Corpus
	idx            *index.Index // hybrid, with impacts: the reference's and the single device's
	bools, sparses []*item
	digests        map[uint32]uint64
	peers          map[peerKey][]topk.Entry
}

type peerKey struct {
	peer string
	q, k int
}

func newStream(o options) (*stream, error) {
	c := corpus.Generate(corpus.CCNewsLike(o.scale))
	s := &stream{o: o, c: c, digests: map[uint32]uint64{}, peers: map[peerKey][]topk.Entry{},
		idx: index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid, Impacts: true})}
	for _, qt := range append(corpus.AllQueryTypes(), corpus.Q7) {
		for _, q := range corpus.SampleQueries(c, qt, o.queries, o.seed) {
			p, err := query.Prepare(q.Expr)
			if err != nil {
				return nil, err
			}
			it := &item{expr: q.Expr, twin: reversed(query.MustParse(q.Expr)).String(), key: p.Key}
			it.want[0], it.want[1] = oracle.Eval(c, s.idx, p.Plan, o.k, false), oracle.Eval(c, s.idx, p.Plan, o.k, true)
			for _, e := range it.want[0] {
				it.ids = append(it.ids, e.DocID)
			}
			if qt == corpus.Q7 {
				s.sparses = append(s.sparses, it)
			} else {
				s.bools = append(s.bools, it)
			}
		}
	}
	return s, nil
}

// reversed reverses every operand list of n, in place.
func reversed(n *query.Node) *query.Node {
	slices.Reverse(n.Children)
	for _, c := range n.Children {
		reversed(c)
	}
	return n
}

// answer is one request's outcome, as the judge reads it.
type answer struct {
	f, q, k  int // family, the query's index in it, the depth asked
	chained  bool
	hits     []topk.Entry
	docs     []boss.Doc // nil unless the request fetched; a chained request's belong to hits
	degraded uint64
	err      error
}

// surface is a row's entry points. send takes each request — a search
// (Expr, K), a fetch by id (FetchIDs) or, where chained, a search that
// fetches its hits (WithDocs) — and returns its answer's future; flush,
// when set, runs what send queued. A row with stats is a front door, whose
// stats are the flights it admitted and the requests it coalesced.
type surface struct {
	send                   func(f int, q pool.BatchQuery) func() answer
	sparse, fetch, chained bool
	flush                  func()
	stats                  func() (admitted, coalesced uint64)
}

func ready(a answer) func() answer { return func() answer { return a } }

// drive sends the stream through a row's surface and judges every answer.
func (s *stream) drive(r *row, sf surface) {
	var judge []func()
	keys := map[string]bool{}
	send := func(a answer, key string, q pool.BatchQuery) {
		get := sf.send(a.f, q)
		judge = append(judge, func() {
			b := get()
			b.f, b.q, b.k, b.chained = a.f, a.q, a.k, a.chained
			s.judge(r, b)
		})
		keys[key] = true
	}
	k, k2 := s.o.k, max(1, s.o.k/2)
	for q, it := range s.bools {
		send(answer{f: search, q: q, k: k}, fmt.Sprint(k, it.key), pool.BatchQuery{Expr: it.expr, K: k})
		if sf.stats != nil {
			send(answer{f: search, q: q, k: k}, fmt.Sprint(k, it.key), pool.BatchQuery{Expr: it.twin, K: k})
			send(answer{f: search, q: q, k: k2}, fmt.Sprint(k2, it.key), pool.BatchQuery{Expr: it.expr, K: k2})
		}
		if sf.fetch && len(it.ids) > 0 {
			send(answer{f: fetch, q: q}, fmt.Sprint(it.ids), pool.BatchQuery{FetchIDs: it.ids})
		}
		if sf.chained {
			send(answer{f: fetch, q: q, k: k, chained: true}, "", pool.BatchQuery{Expr: it.expr, K: k, WithDocs: true})
		}
	}
	for q, it := range s.sparses {
		if sf.sparse {
			send(answer{f: sparse, q: q, k: k}, fmt.Sprint(k, it.key), pool.BatchQuery{Expr: it.expr, K: k})
		}
	}
	if sf.flush != nil {
		sf.flush()
	}
	for _, j := range judge {
		j()
	}
	if sf.stats != nil {
		admitted, coalesced := sf.stats()
		r.cells[search].check(int(admitted) == len(keys) && int(coalesced) == len(judge)-len(keys),
			"admitted %d and coalesced %d of %d requests; want %d and %d", admitted, coalesced, len(judge), len(keys), len(judge)-len(keys))
	}
}

// judge holds one answer to the reference.
func (s *stream) judge(r *row, a answer) {
	c, it := &r.cells[a.f], s.bools
	if a.f == sparse {
		it = s.sparses
	}
	q := it[a.q]
	if a.f == sparse && r.refuses {
		c.refused++
		c.check(errors.Is(a.err, core.ErrNoImpacts), "%s: error %v, want a core.ErrNoImpacts refusal", q.expr, a.err)
		return
	}
	if !c.check(a.err == nil && a.degraded == 0, "%s: error %v, degraded %b", q.expr, a.err, a.degraded) {
		return
	}
	ids := q.ids
	if a.f != fetch || a.chained {
		want, same := q.want[0], oracle.Agree
		if r.fixed && a.f == search {
			want = q.want[1]
		}
		if r.exact || a.f == sparse {
			same = oracle.Same
		}
		err := same(a.hits, want[:min(a.k, len(want))])
		c.check(err == nil, "%s k=%d: %v", q.expr, a.k, err)
		if key := (peerKey{r.peer, a.q, a.k}); r.peer != "" && a.f != sparse {
			if prev, ok := s.peers[key]; ok {
				err := oracle.Same(a.hits, prev)
				c.check(err == nil, "%s k=%d against the other %s rows: %v", q.expr, a.k, r.peer, err)
			} else {
				s.peers[key] = a.hits
			}
		}
		ids = nil
		for _, e := range a.hits {
			ids = append(ids, e.DocID)
		}
	}
	if a.f != fetch || !c.check(len(a.docs) == len(ids), "%s: %d documents for %d ids", q.expr, len(a.docs), len(ids)) {
		return
	}
	for i, d := range a.docs {
		c.check(d.DocID == ids[i] && digest(d.Name, d.Text) == s.docDigest(ids[i]),
			"%s: document %d is %d %q, not corpus document %d", q.expr, i, d.DocID, d.Name, ids[i])
	}
}

// digest hashes a document payload.
func digest(name, text string) uint64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, name+"\x00"+text) // a hash.Hash never fails a write
	return h.Sum64()
}

// docDigest is the digest of the corpus's own payload for document id.
func (s *stream) docDigest(id uint32) uint64 {
	d, ok := s.digests[id]
	if !ok {
		d = digest(string(corpus.DocName(nil, id)), string(corpus.DocText(s.c.Spec.Seed, id, s.c.DocLens[id], s.c.Spec.NumTerms, nil)))
		s.digests[id] = d
	}
	return d
}

// run builds the stream and drives it through every row.
func run(o options) (*matrix, error) {
	s, err := newStream(o)
	if err != nil {
		return nil, err
	}
	m := &matrix{header: fmt.Sprintf("%s at scale %g: %d boolean and %d SPARSE queries (seed %d), k = %d, 1 and %d shards",
		s.c.Spec.Name, o.scale, len(s.bools), len(s.sparses), o.seed, o.k, o.shards)}

	eng := engine.New(s.idx)
	s.drive(m.add(row{name: "engine", peer: "engine"}), surface{send: func(_ int, q pool.BatchQuery) func() answer {
		res, err := eng.Run(query.MustParse(q.Expr), q.K)
		return ready(answer{hits: res.TopK, err: err})
	}})
	iu := iiu.New(index.Build(s.c, index.BuildOptions{Scheme: compress.BP})) // IIU's fixed scheme
	s.drive(m.add(row{name: "iiu"}), surface{send: func(_ int, q pool.BatchQuery) func() answer {
		res, err := iu.Run(query.MustParse(q.Expr), q.K)
		return ready(answer{hits: res.TopK, err: err})
	}})

	ds, err := corpus.DocStore(s.c.Spec, s.c.DocLens, 0, uint32(s.c.Spec.NumDocs))
	if err != nil {
		return nil, err
	}
	variants := map[string]core.Options{"boss": core.DefaultOptions(), "block-only": core.BlockOnlyOptions(), "exhaustive": core.ExhaustiveOptions()}
	for _, v := range []string{"boss", "block-only", "exhaustive"} {
		for _, fixed := range []bool{false, true} {
			opts := variants[v]
			opts.FixedPoint = fixed
			acc := core.NewCached(s.idx, opts, cache.New(pool.DefaultCacheBytes))
			sf := coreSurface(acc, core.NewFetchEngine(ds, acc.Cache()))
			for _, pass := range []string{"cold", "warm"} {
				hits := acc.Cache().Stats().Hits
				r := m.add(row{name: fmt.Sprintf("core %s %s %s", v, map[bool]string{false: "f64", true: "q16"}[fixed], pass), exact: true, fixed: fixed})
				s.drive(r, sf)
				if pass == "warm" {
					r.cells[search].check(acc.Cache().Stats().Hits > hits, "the warm pass hit no cached block")
				}
			}
		}
	}

	var wide *pool.Cluster
	for _, shards := range []int{1, o.shards} {
		if wide, err = pool.NewCluster(pool.DefaultConfig(), s.c, shards); err != nil {
			return nil, err
		}
		for _, replicas := range []int{1, 2} {
			for _, cacheBytes := range []int64{0, pool.DefaultCacheBytes} {
				cfg := pool.DefaultConfig()
				cfg.Replicas, cfg.CacheBytes = replicas, cacheBytes
				cl, err := wide.Fresh(cfg)
				if err != nil {
					return nil, err
				}
				for _, batch := range []bool{false, true} {
					r := m.add(row{exact: shards == 1, refuses: true, peer: fmt.Sprintf("%d-shard", shards),
						name: fmt.Sprintf("cluster %dsh R%d cache %s %s", shards, replicas, map[bool]string{false: "off", true: "on"}[cacheBytes > 0],
							map[bool]string{false: "Search", true: "SearchBatchQueries"}[batch])})
					s.drive(r, clusterSurface(&r.cells[search], cl, replicas, batch))
					if batch && cacheBytes > 0 {
						r.cells[search].check(cl.CacheStats().Hits > 0, "the cache never hit")
					}
				}
			}
		}
	}
	fr, err := front.New(serving(s), front.NewClusterBackend(wide))
	if err != nil {
		return nil, err
	}
	defer fr.Close()
	peer := fmt.Sprintf("%d-shard", o.shards)
	s.drive(m.add(row{name: "front", refuses: true, peer: peer}), served(func(_ int, q pool.BatchQuery) func() answer {
		tk, err := fr.Submit(front.Request{Expr: q.Expr, K: q.K, FetchIDs: q.FetchIDs})
		if err != nil {
			return ready(answer{err: err})
		}
		return func() answer {
			res := tk.Wait(context.Background())
			return answer{hits: res.TopK, docs: docsOf(res.Docs), degraded: res.Degraded, err: res.Err}
		}
	}, fr.Flush, func() (uint64, uint64) { m := fr.Metrics(); return m.Admitted, m.DedupHits }))

	return m, s.facade(m, peer)
}

// facade adds the boss package's rows.
func (s *stream) facade(m *matrix, peer string) error {
	ctx := context.Background()
	ix := boss.BuildSynthetic(boss.CCNewsLike, s.o.scale)
	s.drive(m.add(row{name: "boss Index", peer: "engine"}), surface{send: func(_ int, q pool.BatchQuery) func() answer {
		hs, err := ix.Search(q.Expr, q.K)
		return ready(facade(hs, nil, 0, err))
	}})

	acc := ix.Accelerator(boss.AccelOptions{})
	r := m.add(row{name: "boss Accelerator", exact: true})
	s.drive(r, surface{fetch: true, chained: true, send: func(f int, q pool.BatchQuery) func() answer {
		switch {
		case q.FetchIDs != nil:
			return ready(sharded(acc.FetchDocsCtx(ctx, q.FetchIDs)))
		case q.WithDocs:
			return ready(sharded(acc.SearchFetchCtx(ctx, q.Expr, q.K)))
		}
		hs, st, err := acc.Search(q.Expr, q.K)
		if err == nil {
			r.cells[search].check(st.SimulatedLatency > 0 && st.ThroughputQPS > 0 && (len(hs) == 0 || st.DocsEvaluated > 0 && st.BlocksFetched > 0),
				"%s: empty stats %+v", q.Expr, st)
		}
		return ready(facade(hs, nil, 0, err))
	}})

	// The reference index, written and read back, answers search and
	// SPARSE (the synthetic index carries no impacts) exactly as built.
	var file bytes.Buffer
	if _, err := s.idx.WriteTo(&file); err != nil {
		return err
	}
	imp, err := boss.ReadIndex(&file)
	if err != nil {
		return err
	}
	impAcc := imp.Accelerator(boss.AccelOptions{})
	s.drive(m.add(row{name: "boss ReadIndex", exact: true}), surface{sparse: true, send: func(_ int, q pool.BatchQuery) func() answer {
		hs, _, err := impAcc.Search(q.Expr, q.K)
		return ready(facade(hs, nil, 0, err))
	}})

	sh, err := boss.Shard(boss.CCNewsLike, s.o.scale, s.o.shards)
	if err != nil {
		return err
	}
	sr := m.add(row{name: "boss ShardedIndex.SearchCtx", refuses: true, peer: peer})
	sr.cells[search].check(sh.Nodes() == s.o.shards, "%d nodes, want %d", sh.Nodes(), s.o.shards)
	s.drive(sr, surface{sparse: true, fetch: true, chained: true, send: func(f int, q pool.BatchQuery) func() answer {
		var res *boss.ShardedResult
		var err error
		switch {
		case q.FetchIDs != nil:
			res, err = sh.FetchDocsCtx(ctx, q.FetchIDs)
		case q.WithDocs:
			res, err = sh.SearchFetchCtx(ctx, q.Expr, q.K)
		default:
			if res, err = sh.SearchCtx(ctx, q.Expr, q.K); err == nil && f == search {
				sr.cells[search].check(len(res.Hits) == 0 || res.Stats.DocsEvaluated > 0, "%s: no aggregate stats", q.Expr)
			}
		}
		return ready(sharded(res, err))
	}})

	fc := serving(s)
	cfg := boss.FrontConfig{BatchTarget: fc.BatchTarget, MaxQueue: fc.MaxQueue, Timeout: fc.Timeout, DegradeWatermark: fc.DegradeWatermark}
	var srvs [3]*boss.Server
	for i, serve := range []func(boss.FrontConfig) (*boss.Server, error){sh.Serve, acc.Serve, impAcc.Serve} {
		if srvs[i], err = serve(cfg); err != nil {
			return err
		}
		defer srvs[i].Close()
	}
	s.drive(m.add(row{name: "boss ShardedIndex.Serve", refuses: true, peer: peer}), server(srvs[0]))
	s.drive(m.add(row{name: "boss Accelerator.Serve", exact: true}), server(srvs[1], srvs[2]))
	return nil
}

// coreSurface runs a row on one accelerator and its fetch engine.
func coreSurface(acc *core.Accelerator, fe *core.FetchEngine) surface {
	return surface{sparse: true, fetch: true, send: func(_ int, q pool.BatchQuery) func() answer {
		if q.FetchIDs == nil {
			hits, err := acc.Exec(context.Background(), query.MustParse(q.Expr).Plan(), q.K, perf.NewMetrics(), nil)
			return ready(answer{hits: hits, err: err})
		}
		var buf core.DocBuf
		defer buf.Release()
		a, m := answer{docs: []boss.Doc{}}, perf.NewMetrics()
		for _, id := range q.FetchIDs {
			if a.err = fe.FetchInto(context.Background(), id, m, &buf); a.err != nil {
				break
			}
			a.docs = append(a.docs, boss.Doc{DocID: id, Name: string(buf.Fields[0]), Text: string(buf.Fields[1])})
		}
		return ready(a)
	}}
}

// clusterSurface runs a row through the cluster's single-request entry
// points, or through SearchBatchQueries, checking each search's replica
// attribution into c: none on a single copy, a copy per shard on a
// replicated cluster. A batch row runs its stream twice through one
// BatchResult, the second time in reverse order, and holds the second
// batch's answers to the first's; the row is judged on the first batch's
// answers, read after the second batch ran, so a TopK or Docs that the
// second batch overwrote fails it.
func clusterSurface(c *cell, cl *pool.Cluster, replicas int, batch bool) surface {
	ctx := context.Background()
	// keep is an answer as a caller keeps it: the TopK and Docs the cluster
	// hands off, and copies of the rest.
	type kept struct {
		a    answer
		docs []pool.FetchedDoc
	}
	keep := func(f int, res *pool.ClusterResult, err error) kept {
		if res == nil {
			return kept{a: answer{err: err}}
		}
		if f == search {
			c.check(cl.Replicas() == replicas && (res.ServedBy == nil) == (replicas == 1) && (res.ServedBy == nil || len(res.ServedBy) == cl.Shards()),
				"%d replicas, ServedBy %v", cl.Replicas(), res.ServedBy)
		}
		return kept{answer{hits: res.TopK, degraded: res.Degraded, err: errors.Join(append([]error{err}, res.ShardErrs...)...)}, res.Docs}
	}
	read := func(k kept) answer {
		k.a.docs = docsOf(k.docs)
		return k.a
	}
	slot := func(br *pool.BatchResult, i int) (*pool.ClusterResult, error) {
		if err := br.Errs[i]; err != nil {
			return nil, err
		}
		return &br.Results[i], nil
	}
	var qs []pool.BatchQuery
	var fs []int
	var first []kept
	sf := surface{sparse: true, fetch: true, chained: true, send: func(f int, q pool.BatchQuery) func() answer {
		var res *pool.ClusterResult
		var err error
		switch {
		case batch:
			qs, fs = append(qs, q), append(fs, f)
			i := len(qs) - 1
			return func() answer { return read(first[i]) }
		case q.FetchIDs != nil:
			res, err = cl.FetchBatch(ctx, q.FetchIDs)
		case q.WithDocs:
			res, err = cl.SearchFetchCtx(ctx, q.Expr, q.K)
		default:
			res, err = cl.Search(q.Expr, q.K)
		}
		return ready(read(keep(f, res, err)))
	}}
	if batch {
		sf.flush = func() {
			var br pool.BatchResult
			cl.SearchBatchQueries(ctx, qs, &br)
			first = make([]kept, len(qs))
			for i := range qs {
				res, err := slot(&br, i)
				first[i] = keep(fs[i], res, err)
			}
			rev := slices.Clone(qs)
			slices.Reverse(rev)
			cl.SearchBatchQueries(ctx, rev, &br)
			for i := range rev {
				qi := len(qs) - 1 - i
				res, err := slot(&br, i)
				got, want := read(keep(fs[qi], res, err)), read(first[qi])
				c.check(reflect.DeepEqual(got.hits, want.hits) && reflect.DeepEqual(got.docs, want.docs) &&
					got.degraded == want.degraded && fmt.Sprint(got.err) == fmt.Sprint(want.err),
					"%+v: a second batch through the same BatchResult answers differently", qs[qi])
			}
		}
	}
	return sf
}

// docsOf reads fetched payloads: name, then text.
func docsOf(fds []pool.FetchedDoc) []boss.Doc {
	var docs []boss.Doc
	for _, f := range fds {
		d := boss.Doc{DocID: f.DocID}
		if len(f.Fields) == 2 {
			d.Name, d.Text = string(f.Fields[0]), string(f.Fields[1])
		}
		docs = append(docs, d)
	}
	return docs
}

// serving is a front-door configuration that takes the whole stream as one
// batch: nothing flushes before Flush, and nothing is rejected, shed or
// degraded.
func serving(s *stream) front.Config {
	n := 4*len(s.bools) + len(s.sparses)
	return front.Config{BatchTarget: n + 1, MaxQueue: n, Timeout: time.Hour, DegradeWatermark: 1}
}

// served is a front door's surface.
func served(send func(f int, q pool.BatchQuery) func() answer, flush func(), stats func() (uint64, uint64)) surface {
	return surface{send: send, sparse: true, fetch: true, flush: flush, stats: stats}
}

// server is the surface of facade Servers: the first takes search and
// fetch, the last SPARSE.
func server(srvs ...*boss.Server) surface {
	return served(func(f int, q pool.BatchQuery) func() answer {
		srv := srvs[0]
		if f == sparse {
			srv = srvs[len(srvs)-1]
		}
		tk, err := srv.Submit(boss.ServeRequest{Expr: q.Expr, K: q.K, FetchIDs: q.FetchIDs})
		if err != nil {
			return ready(answer{err: err})
		}
		return func() answer {
			res, err := tk.Wait(context.Background())
			if err != nil {
				return answer{err: err}
			}
			return facade(res.Hits, res.Docs, res.Degraded, nil)
		}
	}, func() {
		for _, srv := range srvs {
			srv.Flush()
		}
	}, func() (admitted, coalesced uint64) {
		for _, srv := range srvs {
			st := srv.Stats()
			admitted, coalesced = admitted+st.Admitted, coalesced+st.DedupHits
		}
		return admitted, coalesced
	})
}

// facade reads a facade answer. A synthetic corpus names document id
// "doc<id>"; a hit named otherwise fails the answer.
func facade(hs []boss.Hit, ds []boss.Doc, degraded uint64, err error) answer {
	a := answer{docs: ds, degraded: degraded, err: err}
	for _, h := range hs {
		a.hits = append(a.hits, topk.Entry{DocID: h.DocID, Score: h.Score})
		if name := string(corpus.DocName(nil, h.DocID)); h.Doc != name {
			a.err = errors.Join(a.err, fmt.Errorf("hit %d named %q, want %q", h.DocID, h.Doc, name))
		}
	}
	return a
}

// sharded is facade over a facade call's *ShardedResult.
func sharded(res *boss.ShardedResult, err error) answer {
	if err != nil {
		return answer{err: err}
	}
	return facade(res.Hits, res.Docs, res.Degraded, nil)
}
