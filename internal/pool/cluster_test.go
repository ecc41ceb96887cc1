package pool

import (
	"math"
	"testing"

	"boss/internal/compress"
	"boss/internal/corpus"
	"boss/internal/engine"
	"boss/internal/index"
	"boss/internal/query"
	"boss/internal/topk"
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

func entriesEqual(a, b []topk.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].DocID != b[i].DocID || math.Abs(a[i].Score-b[i].Score) > 1e-9 {
			return false
		}
	}
	return true
}

// TestClusterMatchesGlobalIndex is the central sharding property: a query
// fanned over docID-interval shards with global statistics must return
// exactly what one monolithic index returns.
func TestClusterMatchesGlobalIndex(t *testing.T) {
	c, global, cl := clusterFixture(t, 4)
	eng := engine.New(global)
	for _, qt := range corpus.AllQueryTypes() {
		for _, q := range corpus.SampleQueries(c, qt, 5, 333) {
			want, err := eng.Run(query.MustParse(q.Expr), 30)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cl.Search(q.Expr, 30)
			if err != nil {
				t.Fatalf("%s: %v", q.Expr, err)
			}
			if !entriesEqual(got.TopK, want.TopK) {
				t.Fatalf("%s (%s): cluster result differs from global index\n got %v\nwant %v",
					qt, q.Expr, got.TopK[:min(5, len(got.TopK))], want.TopK[:min(5, len(want.TopK))])
			}
		}
	}
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
		want, err := engine.New(global).Run(query.MustParse(expr), 20)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.Search(expr, 20)
		if err != nil {
			t.Fatal(err)
		}
		if !entriesEqual(got.TopK, want.TopK) {
			t.Fatalf("%s: sharded result differs from global", expr)
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

func TestClusterGlobalStatsMatter(t *testing.T) {
	// Building shards WITHOUT global stats must (in general) change
	// scores: this guards against silently dropping the global-stats
	// plumbing.
	c := corpus.Generate(corpus.CCNewsLike(0.004))
	perShard := (c.Spec.NumDocs + 1) / 2
	sc := shardCorpus(c, 0, uint32(perShard))
	local := index.Build(sc, index.BuildOptions{Scheme: compress.SchemeHybrid})
	gs := &index.GlobalStats{NumDocs: c.Spec.NumDocs, AvgDocLen: c.AvgDocLen, DF: map[string]int{}}
	for i := range c.Terms {
		gs.DF[c.Terms[i].Term] = len(c.Terms[i].Postings)
	}
	withGlobal := index.Build(sc, index.BuildOptions{Scheme: compress.SchemeHybrid, Global: gs})
	lpl, gpl := local.MustList("t0"), withGlobal.MustList("t0")
	if lpl.IDF == gpl.IDF {
		t.Fatal("global df should change t0's IDF on a half-collection shard")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
