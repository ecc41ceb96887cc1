package boss

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

func fetchTestIndex(t *testing.T) *Index {
	t.Helper()
	b := NewBuilder()
	b.Add("alpha", "the quick brown fox jumps over the lazy dog")
	b.Add("beta", "pack my box with five dozen liquor jugs")
	b.Add("gamma", "the five boxing wizards jump quickly")
	b.Add("delta", "sphinx of black quartz judge my vow")
	return b.Build()
}

func TestFetchDocsUserIndex(t *testing.T) {
	ix := fetchTestIndex(t)
	acc := ix.Accelerator(AccelOptions{})
	docs, stats, err := acc.FetchDocs([]uint32{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("got %d docs", len(docs))
	}
	if docs[0].Name != "gamma" || docs[0].Text != "the five boxing wizards jump quickly" {
		t.Fatalf("doc 2 = %+v", docs[0])
	}
	if docs[1].Name != "alpha" || !strings.Contains(docs[1].Text, "quick brown fox") {
		t.Fatalf("doc 0 = %+v", docs[1])
	}
	if stats.DocsFetched != 2 || stats.DeviceBytes == 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestSearchFetch(t *testing.T) {
	ix := fetchTestIndex(t)
	acc := ix.Accelerator(AccelOptions{})
	hits, docs, stats, err := acc.SearchFetch(`"five"`, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || len(docs) != len(hits) {
		t.Fatalf("hits=%d docs=%d", len(hits), len(docs))
	}
	for i, h := range hits {
		if docs[i].DocID != h.DocID {
			t.Fatalf("hit %d: doc %d fetched %d", i, h.DocID, docs[i].DocID)
		}
		if docs[i].Name != h.Doc {
			t.Fatalf("hit %d: name %q vs %q", i, docs[i].Name, h.Doc)
		}
		if !strings.Contains(docs[i].Text, "five") {
			t.Fatalf("hit %d text %q misses the query term", i, docs[i].Text)
		}
	}
	if stats.DocsFetched != int64(len(hits)) {
		t.Fatalf("DocsFetched = %d, want %d", stats.DocsFetched, len(hits))
	}
	// Search-only stats must be a strict subset (fetch adds traffic).
	_, sOnly, err := acc.Search(`"five"`, 10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeviceBytes <= sOnly.DeviceBytes {
		t.Fatalf("fetch added no device traffic: %d vs %d", stats.DeviceBytes, sOnly.DeviceBytes)
	}
	if sOnly.DocsFetched != 0 {
		t.Fatalf("search-only DocsFetched = %d", sOnly.DocsFetched)
	}
	// The host link carries the ranking, then every returned payload: the
	// documents' name and text bytes, as on the sharded fetch paths.
	var payload int64
	for _, d := range docs {
		payload += int64(len(d.Name) + len(d.Text))
	}
	if stats.HostBytes != sOnly.HostBytes+payload {
		t.Fatalf("SearchFetch HostBytes = %d, want Search's %d + %d payload bytes", stats.HostBytes, sOnly.HostBytes, payload)
	}
}

// TestSearchFetchSynthetic: synthetic indexes synthesize their document
// store lazily and deterministically.
func TestSearchFetchSynthetic(t *testing.T) {
	ix := BuildSynthetic(CCNewsLike, 0.004)
	acc := ix.Accelerator(AccelOptions{})
	hits, docs, _, err := acc.SearchFetch(`"`+ix.CommonTerm(2)+`"`, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != len(hits) || len(docs) == 0 {
		t.Fatalf("hits=%d docs=%d", len(hits), len(docs))
	}
	for i, d := range docs {
		if d.Name != hits[i].Doc || len(d.Text) == 0 {
			t.Fatalf("doc %d: %+v vs hit %+v", i, d, hits[i])
		}
	}
	// A second accelerator over a second identical build serves identical bytes.
	again := BuildSynthetic(CCNewsLike, 0.004).Accelerator(AccelOptions{})
	docs2, _, err := again.FetchDocs([]uint32{docs[0].DocID})
	if err != nil {
		t.Fatal(err)
	}
	if docs2[0].Text != docs[0].Text {
		t.Fatal("synthetic payloads nondeterministic across builds")
	}
}

// TestFetchStatsCacheIndependent: the facade-level replay invariant.
func TestFetchStatsCacheIndependent(t *testing.T) {
	ix := BuildSynthetic(CCNewsLike, 0.004)
	ids := make([]uint32, 0, 200)
	for i := 0; i < 200; i++ {
		ids = append(ids, uint32((i*13)%ix.NumDocs()))
	}
	run := func(cacheBytes int64) *SimStats {
		acc := ix.Accelerator(AccelOptions{CacheBytes: cacheBytes})
		_, stats, err := acc.FetchDocs(ids)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	plain, cached := run(-1), run(64<<20)
	if *plain != *cached {
		t.Fatalf("simulated stats diverge with cache:\nplain:  %+v\ncached: %+v", plain, cached)
	}
	// And the cache actually served the repeats.
	acc := ix.Accelerator(AccelOptions{})
	if _, _, err := acc.FetchDocs(ids); err != nil {
		t.Fatal(err)
	}
	if acc.DocCacheHitRate() == 0 {
		t.Fatal("doc cache never hit on repeated fetches")
	}
	if acc.PostingCacheHitRate() != 0 {
		t.Fatal("posting hit rate moved on doc-only traffic")
	}
}

// TestReadIndexNoDocStore: deserialized indexes carry postings only and
// fail fetches with the typed error.
func TestReadIndexNoDocStore(t *testing.T) {
	ix := fetchTestIndex(t)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	acc := back.Accelerator(AccelOptions{})
	if _, _, err := acc.FetchDocs([]uint32{0}); !errors.Is(err, ErrNoDocStore) {
		t.Fatalf("err = %v, want ErrNoDocStore", err)
	}
	if _, _, _, err := acc.SearchFetch(`"quick"`, 3); !errors.Is(err, ErrNoDocStore) {
		t.Fatalf("SearchFetch err = %v, want ErrNoDocStore", err)
	}
	// Plain search still works.
	if _, _, err := acc.Search(`"quick"`, 3); err != nil {
		t.Fatal(err)
	}
}

// TestShardedSearchFetch: the pooled deployment's fetch path.
func TestShardedSearchFetch(t *testing.T) {
	s, err := Shard(CCNewsLike, 0.004, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Any common term exists on a synthetic corpus.
	res, err := s.SearchFetchCtx(context.Background(), `"t1"`, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != 0 {
		t.Fatalf("pristine deployment degraded: %b", res.Degraded)
	}
	if len(res.Docs) != len(res.Hits) || len(res.Hits) == 0 {
		t.Fatalf("hits=%d docs=%d", len(res.Hits), len(res.Docs))
	}
	for i, h := range res.Hits {
		if res.Docs[i].DocID != h.DocID || res.Docs[i].Name != h.Doc {
			t.Fatalf("hit %d mismatch: %+v vs %+v", i, h, res.Docs[i])
		}
	}
	if res.Stats.DocsFetched != int64(len(res.Hits)) {
		t.Fatalf("DocsFetched = %d", res.Stats.DocsFetched)
	}
	// Explicit fetch returns the same payloads.
	fr, err := s.FetchDocsCtx(context.Background(), []uint32{res.Hits[0].DocID})
	if err != nil {
		t.Fatal(err)
	}
	if fr.Docs[0].Text != res.Docs[0].Text {
		t.Fatal("FetchDocsCtx and SearchFetchCtx disagree")
	}
	if s.DocCacheHitRate() == 0 {
		t.Fatal("cluster doc cache never hit on the re-fetch")
	}
}

// TestShardedFetchDegraded: a dead node's documents degrade gracefully
// through the facade.
func TestShardedFetchDegraded(t *testing.T) {
	s, err := Shard(CCNewsLike, 0.004, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.InjectFaults(FaultConfig{Seed: 1, DeadNodes: []int{1}})
	last := uint32(0)
	res, err := s.FetchDocsCtx(context.Background(), []uint32{last})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != 0 || res.Docs[0].Text == "" {
		t.Fatalf("node 0 fetch should be clean: %+v", res)
	}
	// A query whose hits span both nodes degrades on node 1's docs.
	sf, err := s.SearchFetchCtx(context.Background(), `"t0"`, 20)
	if err != nil {
		t.Fatal(err)
	}
	if sf.Degraded&2 == 0 {
		t.Fatalf("dead node not flagged: %b", sf.Degraded)
	}
}

// TestFetchDocsAllocs: a facade fetch's cost does not grow with its
// documents. The pool hands off Docs and one arena per answer, and the
// facade converts them into its Docs and one string every Name and Text
// slices (two strings per document until then: 4 more allocations each), so
// ShardedIndex.FetchDocsCtx and Accelerator.FetchDocs of 10 documents
// allocate what they do for 1, and serve the same documents one at a time
// or together.
func TestFetchDocsAllocs(t *testing.T) {
	s, err := Shard(CCNewsLike, 0.004, 3)
	if err != nil {
		t.Fatal(err)
	}
	ix := BuildSynthetic(CCNewsLike, 0.004)
	acc := ix.Accelerator(AccelOptions{})
	n := uint32(ix.NumDocs())
	ids := []uint32{0, n - 1, n / 2, 1, n/2 + 1, n / 3, 7, n / 4, 3 * n / 4, n - 2}
	fetchers := []struct {
		name  string
		fetch func(ids []uint32) []Doc
	}{
		{"ShardedIndex.FetchDocsCtx", func(ids []uint32) []Doc {
			res, err := s.FetchDocsCtx(context.Background(), ids)
			if err != nil {
				t.Fatal(err)
			}
			return res.Docs
		}},
		{"Accelerator.FetchDocs", func(ids []uint32) []Doc {
			docs, _, err := acc.FetchDocs(ids)
			if err != nil {
				t.Fatal(err)
			}
			return docs
		}},
	}
	for _, f := range fetchers {
		all := f.fetch(ids)
		for i, id := range ids {
			if one := f.fetch(ids[i : i+1])[0]; all[i] != one || one.DocID != id || one.Name == "" || one.Text == "" {
				t.Fatalf("%s: document %d fetched with nine others is %+v, alone %+v", f.name, id, all[i], one)
			}
		}
		if raceEnabled() {
			continue
		}
		one := testing.AllocsPerRun(50, func() { f.fetch(ids[:1]) })
		ten := testing.AllocsPerRun(50, func() { f.fetch(ids) })
		if one != ten {
			t.Errorf("%s allocates %.2f for 1 document and %.2f for 10, want the same", f.name, one, ten)
		}
	}
}
