package pool

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"boss/internal/corpus"
)

// TestNewClusterRejectsBadConfig audits the config validation gap: every
// nonsense field value must return ErrBadConfig from every construction
// path, never a panic and never a silently-misbehaving cluster.
func TestNewClusterRejectsBadConfig(t *testing.T) {
	c := corpus.Generate(corpus.ClueWebLike(0.005))
	cases := []struct {
		name string
		cfg  Config
	}{
		{"negative CacheBytes", func() Config { c := DefaultConfig(); c.CacheBytes = -1; return c }()},
		{"negative K", func() Config { c := DefaultConfig(); c.K = -10; return c }()},
		{"negative Workers", func() Config { c := DefaultConfig(); c.Workers = -2; return c }()},
		{"zero Replicas", func() Config { c := DefaultConfig(); c.Replicas = 0; return c }()},
		{"negative Replicas", func() Config { c := DefaultConfig(); c.Replicas = -2; return c }()},
	}
	base, err := NewCluster(DefaultConfig(), c, 2)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewCluster(tc.cfg, c, 2); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("NewCluster(%s): err = %v, want ErrBadConfig", tc.name, err)
			}
			if _, err := base.Fresh(tc.cfg); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("Fresh(%s): err = %v, want ErrBadConfig", tc.name, err)
			}
		})
	}
	// maxShards+1: the Degraded/ShardMask bitmasks cannot name shard 64, so
	// its failure would go unreported.
	for _, shards := range []int{0, -1, maxShards + 1} {
		if _, err := NewCluster(DefaultConfig(), c, shards); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("NewCluster(shards=%d): err = %v, want ErrBadConfig", shards, err)
		}
	}
	// Replication over zero shards is as nonsensical as zero shards alone:
	// the shard-count check must fire before any replica is built.
	repl := DefaultConfig()
	repl.Replicas = 2
	if _, err := NewCluster(repl, c, 0); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("NewCluster(replicas=2, shards=0): err = %v, want ErrBadConfig", err)
	}
}

// TestSearchBatchQueriesMatchesHomogeneousBatch verifies per-query depths:
// each query of a mixed-depth batch returns what it returns in a
// homogeneous batch (Queries) at its own depth.
func TestSearchBatchQueriesMatchesHomogeneousBatch(t *testing.T) {
	c := corpus.Generate(corpus.ClueWebLike(0.005))
	cl, err := NewCluster(DefaultConfig(), c, 3)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	exprs := []string{`"t1"`, `"t2" AND "t3"`, `"t1" OR "t4"`}
	depths := []int{25, 3, 11}
	het := Queries(exprs, 0)
	for i := range het {
		het[i].K = depths[i]
	}
	got := runBatch(context.Background(), cl, het)
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	for i, k := range depths {
		hom := runBatch(context.Background(), cl, Queries(exprs, k))
		if hom.Err != nil {
			t.Fatal(hom.Err)
		}
		if a, b := got.Results[i].TopK, hom.Results[i].TopK; !reflect.DeepEqual(a, b) {
			t.Fatalf("query %d at k=%d: mixed-depth batch %v, homogeneous batch %v", i, k, a, b)
		}
		if len(got.Results[i].TopK) > k {
			t.Fatalf("query %d: %d hits exceed its depth %d", i, len(got.Results[i].TopK), k)
		}
	}
}

// TestSearchBatchQueriesShardMask verifies masked execution: excluded
// shards are flagged Degraded with ErrShardShed, never attempted (their
// counters stay zero), and included shards merge normally.
func TestSearchBatchQueriesShardMask(t *testing.T) {
	c := corpus.Generate(corpus.ClueWebLike(0.005))
	cl, err := NewCluster(DefaultConfig(), c, 4)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	const mask = uint64(0b0101) // shards 0 and 2 execute; 1 and 3 shed
	br := runBatch(context.Background(), cl,
		[]BatchQuery{{Expr: `"t1"`, K: 30, ShardMask: mask}})
	if br.Errs[0] != nil {
		t.Fatalf("masked query: %v", br.Errs[0])
	}
	res := &br.Results[0]
	if res.Degraded != ^mask&0b1111 {
		t.Fatalf("Degraded = %04b, want %04b", res.Degraded, ^mask&0b1111)
	}
	for _, si := range []int{1, 3} {
		if err := res.ShardErrs[si]; !errors.Is(err, ErrShardShed) {
			t.Fatalf("shard %d err = %v, want ErrShardShed", si, err)
		}
		if st := cl.ReplicaStats(si, 0); st != (ReplicaStats{}) {
			t.Fatalf("shed shard %d counted %+v; shedding must bypass the breaker", si, st)
		}
	}
	for _, si := range []int{0, 2} {
		if res.PerShard[si] == nil {
			t.Fatalf("included shard %d contributed no metrics", si)
		}
	}
	if len(res.TopK) == 0 {
		t.Fatal("masked query returned no hits")
	}
	// Zero mask means no mask: all shards execute.
	full := runBatch(context.Background(), cl, []BatchQuery{{Expr: `"t1"`, K: 30}})
	if full.Errs[0] != nil || full.Results[0].Degraded != 0 {
		t.Fatalf("zero-mask query: err=%v degraded=%04b", full.Errs[0], full.Results[0].Degraded)
	}
}
