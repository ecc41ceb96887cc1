package pool

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"boss/internal/compress"
	"boss/internal/core"
	"boss/internal/corpus"
	"boss/internal/index"
	"boss/internal/oracle"
	"boss/internal/perf"
	"boss/internal/query"
)

func clusterFixture(t testing.TB, shards int) (*corpus.Corpus, *index.Index, *Cluster) {
	t.Helper()
	c := corpus.Generate(corpus.CCNewsLike(0.006))
	global := index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid})
	return c, global, mustCluster(t, DefaultConfig(), c, shards)
}

// mustCluster builds a cluster or fails the test.
func mustCluster(t testing.TB, cfg Config, c *corpus.Corpus, shards int) *Cluster {
	t.Helper()
	cl, err := NewCluster(cfg, c, shards)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// runBatch runs qs as one SearchBatchQueries batch into a fresh BatchResult.
func runBatch(ctx context.Context, cl *Cluster, qs []BatchQuery) *BatchResult {
	br := new(BatchResult)
	cl.SearchBatchQueries(ctx, qs, br)
	return br
}

// slot reads query i of a batch as the single-query entry points return it:
// its result, or nil and its error.
func slot(br *BatchResult, i int) (*ClusterResult, error) {
	if err := br.Errs[i]; err != nil {
		return nil, err
	}
	return &br.Results[i], nil
}

func TestClusterShardCounts(t *testing.T) {
	_, _, cl := clusterFixture(t, 4)
	if cl.Shards() != 4 {
		t.Fatalf("shards = %d", cl.Shards())
	}
	// One shard degenerates to the single-node case.
	c := corpus.Generate(corpus.CCNewsLike(0.004))
	one := mustCluster(t, DefaultConfig(), c, 1)
	if one.Shards() != 1 {
		t.Fatalf("single shard cluster has %d shards", one.Shards())
	}
	// More shards than documents: builder stops at populated intervals.
	tiny := &corpus.Corpus{}
	*tiny = *c
	many := mustCluster(t, DefaultConfig(), tiny, 7)
	if many.Shards() < 2 {
		t.Fatal("sharding produced too few nodes")
	}
}

func TestClusterUnknownTerm(t *testing.T) {
	_, _, cl := clusterFixture(t, 3)
	if _, err := cl.Search(`"definitelynotaterm"`, 10); err == nil {
		t.Fatal("unknown term should error")
	}
	if _, err := cl.Search(`bad syntax`, 10); err == nil {
		t.Fatal("malformed query should error")
	}
}

func TestClusterHandlesTermsMissingOnSomeShards(t *testing.T) {
	// Rare terms live on few shards; queries touching them must still
	// work and match the global index.
	c, global, cl := clusterFixture(t, 6)
	rare := c.Terms[len(c.Terms)-1].Term
	common := c.Terms[0].Term
	for _, expr := range []string{
		`"` + rare + `"`,
		`"` + common + `" AND "` + rare + `"`,
		`"` + common + `" OR "` + rare + `"`,
	} {
		want := oracle.Eval(c, global, query.MustParse(expr).Plan(), 20, false)
		got, err := cl.Search(expr, 20)
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.Agree(got.TopK, want); err != nil {
			t.Fatalf("%s: sharded result differs from global: %v", expr, err)
		}
	}
}

func TestClusterLinkTrafficIsPerShardTopK(t *testing.T) {
	_, _, cl := clusterFixture(t, 4)
	k := 15
	res, err := cl.Search(`"t0" OR "t1"`, k)
	if err != nil {
		t.Fatal(err)
	}
	// Each participating node ships at most k entries of 8 bytes.
	var active int64
	for _, m := range res.PerShard {
		if m != nil {
			active++
		}
	}
	if res.LinkBytes > active*int64(k)*8 {
		t.Fatalf("link bytes %d exceed %d shards x k x 8", res.LinkBytes, active)
	}
	if res.LinkBytes == 0 {
		t.Fatal("no link traffic recorded")
	}
}

// TestShardIsMonolithRange: every shard index NewCluster builds is the
// monolithic index restricted to the shard's docID range. Each shard list
// decodes to the monolithic list's postings in [lo, hi), rebased to lo,
// with a bit-equal IDF; each shard's document norms are the monolithic
// norms of its range; and a term with no posting in the range is absent.
// This is what makes a sharded top-k byte-identical to the monolithic one.
// The corpus's 3599 documents leave every layout's last shard short.
func TestShardIsMonolithRange(t *testing.T) {
	spec := corpus.CCNewsLike(0.006)
	spec.NumDocs = 3599
	c := corpus.Generate(spec)
	mono := index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid})
	type decoded struct{ docs, tfs []uint32 }
	full := make(map[string]decoded, len(mono.Lists))
	for term, pl := range mono.Lists {
		var d decoded
		for b := range pl.Blocks {
			d.docs, d.tfs = mono.DecodeBlock(pl, b, d.docs, d.tfs)
		}
		full[term] = d
	}
	for _, shards := range []int{1, 3, 4, 5} {
		cl := mustCluster(t, DefaultConfig(), c, shards)
		for si, idx := range cl.shards {
			lo := cl.offsets[si]
			hi := lo + uint32(idx.NumDocs)
			if math.Float64bits(idx.AvgDocLen) != math.Float64bits(mono.AvgDocLen) {
				t.Fatalf("%d shards, shard %d: AvgDocLen %v, want %v", shards, si, idx.AvgDocLen, mono.AvgDocLen)
			}
			for d, norm := range idx.DocNorms {
				if math.Float64bits(norm) != math.Float64bits(mono.DocNorms[int(lo)+d]) {
					t.Fatalf("%d shards, shard %d: DocNorms[%d] %v, want %v", shards, si, d, norm, mono.DocNorms[int(lo)+d])
				}
			}
			present := 0
			for term, want := range full {
				start, _ := slices.BinarySearch(want.docs, lo)
				end, _ := slices.BinarySearch(want.docs, hi)
				pl := idx.List(term)
				if start == end {
					if pl != nil {
						t.Fatalf("%d shards, shard %d: %q has no posting in [%d, %d) but is indexed", shards, si, term, lo, hi)
					}
					continue
				}
				present++
				if pl == nil {
					t.Fatalf("%d shards, shard %d: %q missing", shards, si, term)
				}
				if math.Float64bits(pl.IDF) != math.Float64bits(mono.Lists[term].IDF) {
					t.Fatalf("%d shards, shard %d: %q IDF %v, want %v", shards, si, term, pl.IDF, mono.Lists[term].IDF)
				}
				var got decoded
				for b := range pl.Blocks {
					got.docs, got.tfs = idx.DecodeBlock(pl, b, got.docs, got.tfs)
				}
				rebased := make([]uint32, 0, end-start)
				for _, d := range want.docs[start:end] {
					rebased = append(rebased, d-lo)
				}
				if pl.DF != end-start || !slices.Equal(got.docs, rebased) || !slices.Equal(got.tfs, want.tfs[start:end]) {
					t.Fatalf("%d shards, shard %d: %q decodes to %d postings unequal to the monolith's %d in [%d, %d)",
						shards, si, term, len(got.docs), end-start, lo, hi)
				}
			}
			if present != len(idx.Lists) {
				t.Fatalf("%d shards, shard %d: %d lists, want %d", shards, si, len(idx.Lists), present)
			}
		}
	}
}

// TestSparseRefusedBeforeTheShards: SPARSE is refused with core.ErrNoImpacts
// where the index lacks impacts — on NewCluster, whose shards never carry
// them, and on NewSingle over an index built without — and refused before it
// reaches a shard, as an unknown term and an over-limit query are. Refused on
// the shards, they counted against the breakers, which opened on the queries
// after them.
func TestSparseRefusedBeforeTheShards(t *testing.T) {
	c, plain, cl := clusterFixture(t, 2)
	single, err := NewSingle(DefaultConfig(), plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	var lim *query.TermLimitError
	for _, tc := range []struct {
		name    string
		cl      *Cluster
		expr    string
		refused func(error) bool
	}{
		{"NewCluster SPARSE", cl, `SPARSE("t1", "t2")`, func(err error) bool { return errors.Is(err, core.ErrNoImpacts) }},
		{"NewSingle SPARSE", single, `SPARSE("t1", "t2")`, func(err error) bool { return errors.Is(err, core.ErrNoImpacts) }},
		{"NewSingle unknown term", single, `"t1" AND "nosuchtermzz"`, func(err error) bool { return err != nil }},
		{"NewSingle 17 terms", single, `"t1"` + strings.Repeat(` OR "t1"`, query.MaxTerms), func(err error) bool { return errors.As(err, &lim) }},
		{"NewCluster 17 terms", cl, `"t1"` + strings.Repeat(` OR "t1"`, query.MaxTerms), func(err error) bool { return errors.As(err, &lim) }},
	} {
		for i := 0; i < 2*breakerThreshold; i++ {
			if _, err := tc.cl.SearchCtx(context.Background(), tc.expr, 10); !tc.refused(err) {
				t.Fatalf("%s: query %d: err = %v, want a refusal", tc.name, i, err)
			}
		}
		if st := tc.cl.ReplicaStats(0, 0); st != (ReplicaStats{}) {
			t.Fatalf("%s: the refusals reached shard 0: %+v", tc.name, st)
		}
	}
	for _, tc := range []struct {
		name string
		cl   *Cluster
	}{{"NewCluster", cl}, {"NewSingle", single}} {
		_, err := tc.cl.Search(`"t1" AND "t2"`, 10)
		if st := tc.cl.ReplicaStats(0, 0); err != nil || st != (ReplicaStats{Successes: 1}) {
			t.Fatalf("%s: boolean query after the refusals: %v, shard 0 counters %+v", tc.name, err, st)
		}
	}

	// Over an index with impacts, NewSingle serves SPARSE: core.Exec's
	// answer, bit for bit, through SearchCtx and SearchBatchQueries.
	imp := index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid, Impacts: true})
	one, err := NewSingle(DefaultConfig(), imp, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := core.New(imp, DefaultConfig().Opts)
	var qs []BatchQuery
	for _, q := range corpus.SampleQueries(c, corpus.Q7, 6, 11) {
		qs = append(qs, BatchQuery{Expr: q.Expr, K: 10})
	}
	br := runBatch(context.Background(), one, qs)
	ranked := 0
	for i, q := range qs {
		want, err := ref.Exec(nil, query.MustParse(q.Expr).Plan(), q.K, new(perf.Metrics), nil)
		if err != nil {
			t.Fatal(err)
		}
		ranked += len(want)
		res, err := one.SearchCtx(context.Background(), q.Expr, q.K)
		if err != nil {
			t.Fatalf("%s: SearchCtx: %v", q.Expr, err)
		}
		if err := oracle.Same(res.TopK, want); err != nil {
			t.Errorf("%s: SearchCtx vs core.Exec: %v", q.Expr, err)
		}
		got, err := slot(br, i)
		if err != nil {
			t.Fatalf("%s: SearchBatchQueries: %v", q.Expr, err)
		}
		if err := oracle.Same(got.TopK, want); err != nil {
			t.Errorf("%s: SearchBatchQueries vs core.Exec: %v", q.Expr, err)
		}
	}
	if len(qs) == 0 || ranked == 0 {
		t.Fatalf("%d SPARSE queries ranking %d documents: the arm checks nothing", len(qs), ranked)
	}
}
