package pool

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"slices"
	"testing"

	"boss/internal/corpus"
	"boss/internal/docstore"
)

// clusterBuild is what NewCluster and EnsureDocs built, reduced to what must
// not depend on how many goroutines built it.
type clusterBuild struct {
	shards string // SHA-256 of every shard index's serialized form, in shard order
	docs   string // SHA-256 of every shard's document store, in shard order
	// listIDs holds the shard lists' identities in (shard, corpus term)
	// order, relative to the first; storeIDs the stores' in shard order.
	listIDs  []uint64
	storeIDs []uint64
}

// buildCluster builds a 4-shard cluster over c and its document stores.
func buildCluster(t *testing.T, c *corpus.Corpus) clusterBuild {
	t.Helper()
	cl := mustCluster(t, DefaultConfig(), c, 4)
	var b clusterBuild
	h := sha256.New()
	for _, idx := range cl.shards {
		if _, err := idx.WriteTo(h); err != nil {
			t.Fatal(err)
		}
		for i := range c.Terms {
			if pl := idx.Lists[c.Terms[i].Term]; pl != nil {
				b.listIDs = append(b.listIDs, pl.ID())
			}
		}
	}
	b.shards = hex.EncodeToString(h.Sum(nil))

	stores := make([]*docstore.Store, cl.Shards())
	source := cl.docs
	cl.docs = func(lo, hi uint32) (*docstore.Store, error) {
		s, err := source(lo, hi)
		stores[cl.shardOfDoc(lo)] = s
		return s, err
	}
	if err := cl.EnsureDocs(); err != nil {
		t.Fatal(err)
	}
	h.Reset()
	for _, s := range stores {
		if _, err := s.WriteTo(h); err != nil {
			t.Fatal(err)
		}
		b.storeIDs = append(b.storeIDs, s.ID())
	}
	b.docs = hex.EncodeToString(h.Sum(nil))

	for _, ids := range [][]uint64{b.listIDs, b.storeIDs} {
		for i := len(ids) - 1; i >= 0; i-- {
			if i > 0 && ids[i] <= ids[i-1] {
				t.Fatalf("identities out of build order at %d: %d after %d", i, ids[i], ids[i-1])
			}
			ids[i] -= ids[0]
		}
	}
	return b
}

// Digests of the ClueWebLike(0.01) 4-shard cluster: shard indexes, each
// the docID range of the one corpus it serves, and the document stores
// EnsureDocs packs.
const (
	goldenShards = "c8a6fc645fe14cfde6cd71bf9fbe70bfe8f0f1755428837017f5ae8af8f74f42"
	goldenDocs   = "709bcdd8334a950112689a8de1119f92a625983a3e6d7a84f928e744f3a210ab"
)

// TestBuildGolden pins a cluster's shard indexes and document stores byte
// for byte, so a faster construction cannot move a figure. The 0.25 row is
// the bench's scale, the one setup_s times.
func TestBuildGolden(t *testing.T) {
	for _, tc := range []struct {
		spec         corpus.Spec
		shards, docs string
	}{
		{corpus.ClueWebLike(0.01), goldenShards, goldenDocs},
		{corpus.ClueWebLike(0.25),
			"b3d1736c535a31bcd4d0d91c423392131db27deb362acf56de4198d3b47c9ef9",
			"630e837eda9a26a0fbc0a2cce70abdb2b5bace893402d453b1e0933534e83929"},
	} {
		b := buildCluster(t, corpus.Generate(tc.spec))
		if b.shards != tc.shards {
			t.Errorf("%s/%d docs: shard index digest %s, want %s", tc.spec.Name, tc.spec.NumDocs, b.shards, tc.shards)
		}
		if b.docs != tc.docs {
			t.Errorf("%s/%d docs: document store digest %s, want %s", tc.spec.Name, tc.spec.NumDocs, b.docs, tc.docs)
		}
	}
}

// TestBuildWidths builds the same cluster and stores at one, two and eight
// Ps: the bytes and the order in which lists and stores take their
// identities must not depend on the build's width.
func TestBuildWidths(t *testing.T) {
	c := corpus.Generate(corpus.ClueWebLike(0.01))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want clusterBuild
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		b := buildCluster(t, c)
		if procs == 1 {
			want = b
			continue
		}
		if b.shards != want.shards || b.docs != want.docs {
			t.Errorf("GOMAXPROCS=%d: digests %s/%s, want %s/%s", procs, b.shards, b.docs, want.shards, want.docs)
		}
		if !slices.Equal(b.listIDs, want.listIDs) || !slices.Equal(b.storeIDs, want.storeIDs) {
			t.Errorf("GOMAXPROCS=%d: identity order differs from GOMAXPROCS=1", procs)
		}
	}
	if want.shards != goldenShards || want.docs != goldenDocs {
		t.Errorf("GOMAXPROCS=1: digests %s/%s, want %s/%s", want.shards, want.docs, goldenShards, goldenDocs)
	}
}

// BenchmarkNewCluster times the 4-shard cluster construction every bench
// run pays for, over ClueWebLike(0.25), the corpus generated once outside
// the loop.
func BenchmarkNewCluster(b *testing.B) {
	c := corpus.Generate(corpus.ClueWebLike(0.25))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCluster(DefaultConfig(), c, 4); err != nil {
			b.Fatal(err)
		}
	}
}
