package pool

import (
	"reflect"
	"sync"
	"testing"

	"boss/internal/cache"
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

	// The same shards behind the default cache budget; run reads cl.
	cl, err := cl.Fresh(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
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

// TestFreshClustersOwnTheirTables pins "the block table belongs to the
// cache": two clusters from Fresh serve one set of shard indexes — the same
// posting lists, the same list identities — each through its own cache, and
// are queried at the same time. Were a table hung on the list, one cache's
// entries would answer the other's lookups; as it is the answers match the
// parent's, each cache counts its own lookups (the second, 16 KiB, far too
// small for the working set, also evicts), and nothing stays pinned in
// either.
func TestFreshClustersOwnTheirTables(t *testing.T) {
	cl, exprs := cacheTestCluster(t, DefaultConfig())
	const k = 20
	want := make([]*ClusterResult, len(exprs))
	for qi, e := range exprs {
		r, err := cl.Search(e, k)
		if err != nil {
			t.Fatal(err)
		}
		want[qi] = r
	}

	small := DefaultConfig()
	small.CacheBytes = 16 << 10
	fresh := make([]*Cluster, 2)
	for i, cfg := range []Config{DefaultConfig(), small} {
		nc, err := cl.Fresh(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = nc
	}
	if fresh[0].Cache() == fresh[1].Cache() || fresh[0].Cache() == cl.Cache() {
		t.Fatal("Fresh must give each cluster its own cache")
	}

	const passes = 3
	var wg sync.WaitGroup
	for _, nc := range fresh {
		wg.Add(1)
		go func(nc *Cluster) {
			defer wg.Done()
			for pass := 0; pass < passes; pass++ {
				for qi, e := range exprs {
					got, err := nc.Search(e, k)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(got.TopK, want[qi].TopK) || !reflect.DeepEqual(got.PerShard, want[qi].PerShard) {
						t.Errorf("pass %d query %d: a fresh cluster's answer differs from its parent's", pass, qi)
						return
					}
				}
			}
		}(nc)
	}
	wg.Wait()

	base := cl.CacheStats()
	a, b := fresh[0].CacheStats(), fresh[1].CacheStats()
	// Every cluster looked up the same blocks: the parent once, each fresh
	// one passes times.
	lookups := base.Hits + base.Misses
	for i, st := range []cache.Stats{a, b} {
		if st.Hits+st.Misses != passes*lookups {
			t.Fatalf("fresh cluster %d counted %d lookups, want %d of its own", i, st.Hits+st.Misses, passes*lookups)
		}
		if st.PinnedEntries != 0 {
			t.Fatalf("fresh cluster %d: %d entries still pinned", i, st.PinnedEntries)
		}
	}
	if a.Misses != base.Misses || a.Evictions != 0 {
		t.Fatalf("full-size fresh cache: %d misses / %d evictions, want the parent's %d cold misses and none", a.Misses, a.Evictions, base.Misses)
	}
	if b.Evictions == 0 || b.Misses <= a.Misses {
		t.Fatalf("small fresh cache: %d misses / %d evictions, want churn of its own", b.Misses, b.Evictions)
	}
	if after := cl.CacheStats(); after != base {
		t.Fatalf("the parent's cache moved while only its fresh clusters were queried: %+v -> %+v", base, after)
	}
}
