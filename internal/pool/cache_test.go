package pool

import (
	"context"
	"reflect"
	"testing"

	"boss/internal/corpus"
)

// cacheTestCluster builds a small cluster and a Zipf-skewed workload that
// revisits hot terms, so cached runs actually exercise hits.
func cacheTestCluster(t *testing.T, cfg Config) (*Cluster, []string) {
	t.Helper()
	c := corpus.Generate(corpus.CCNewsLike(0.004))
	cl := mustCluster(t, cfg, c, 3)
	var exprs []string
	for _, qt := range corpus.AllQueryTypes() {
		for _, q := range corpus.SampleZipfQueries(c, qt, 6, 0, 7) {
			exprs = append(exprs, q.Expr)
		}
	}
	return cl, exprs
}

// TestClusterCacheDeterminism is the cache's core safety property:
// enabling the decoded-block cache must not change one bit of any result
// or any simulated metric — rankings, traffic, timings — across repeated
// runs that do get cache hits.
func TestClusterCacheDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheBytes = 0 // start uncached
	cl, exprs := cacheTestCluster(t, cfg)
	k := 20

	type outcome struct {
		res []*ClusterResult
	}
	run := func() outcome {
		var o outcome
		for _, e := range exprs {
			r, err := cl.Search(e, k)
			if err != nil {
				t.Fatal(err)
			}
			o.res = append(o.res, r)
		}
		return o
	}

	base := run()

	cl.SetCacheBytes(DefaultCacheBytes)
	cold := run()
	warm := run() // second pass over the same queries: hits guaranteed

	st := cl.CacheStats()
	if st.Hits == 0 {
		t.Fatal("warm cached run recorded no cache hits; test exercises nothing")
	}

	for pass, got := range []outcome{cold, warm} {
		for qi := range exprs {
			b, g := base.res[qi], got.res[qi]
			if !reflect.DeepEqual(b.TopK, g.TopK) {
				t.Fatalf("pass %d query %d: cached TopK differs from uncached", pass, qi)
			}
			if b.LinkBytes != g.LinkBytes {
				t.Fatalf("pass %d query %d: LinkBytes %d != %d", pass, qi, g.LinkBytes, b.LinkBytes)
			}
			if len(b.PerShard) != len(g.PerShard) {
				t.Fatalf("pass %d query %d: shard count differs", pass, qi)
			}
			for si := range b.PerShard {
				if !reflect.DeepEqual(b.PerShard[si], g.PerShard[si]) {
					t.Fatalf("pass %d query %d shard %d: simulated metrics differ cached vs uncached:\n  uncached: %+v\n  cached:   %+v",
						pass, qi, si, b.PerShard[si], g.PerShard[si])
				}
			}
		}
	}
}

// TestClusterCacheBatchMatchesSearch checks a batch with the default-on
// cache returns exactly what per-query Search returns.
func TestClusterCacheBatchMatchesSearch(t *testing.T) {
	cl, exprs := cacheTestCluster(t, DefaultConfig())
	k := 20
	br := cl.SearchBatchQueries(context.Background(), Queries(exprs, k))
	if br.Err != nil {
		t.Fatal(br.Err)
	}
	for qi, e := range exprs {
		want, err := cl.Search(e, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.TopK, br.Results[qi].TopK) {
			t.Fatalf("query %d: batch TopK differs from Search", qi)
		}
	}
	if cl.CacheStats().Hits == 0 {
		t.Fatal("no hits across batch + repeated Search")
	}
}
