package boss_test

import (
	"context"
	"errors"
	"fmt"
	"time"

	"boss"
)

// The basic flow: ingest documents, build the compressed index, search.
func ExampleBuilder() {
	b := boss.NewBuilder()
	b.Add("fox", "the quick brown fox jumps over the lazy dog")
	b.Add("scm", "storage class memory bridges the gap between memory and disk")
	b.Add("ndp", "near data processing moves compute next to memory")
	ix := b.Build()

	// "memory" appears twice in the scm document, once in ndp.
	hits, _ := ix.Search(`"memory"`, 10)
	for _, h := range hits {
		fmt.Println(h.Doc)
	}
	// Output:
	// scm
	// ndp
}

// Boolean expressions follow the paper's offloading-API syntax: quoted
// terms, AND/OR, round brackets; AND binds tighter than OR.
func ExampleIndex_Search() {
	b := boss.NewBuilder()
	b.Add("a", "red green blue")
	b.Add("b", "red yellow")
	b.Add("c", "green yellow")
	ix := b.Build()

	hits, _ := ix.Search(`"yellow" AND ("red" OR "green")`, 10)
	for _, h := range hits {
		fmt.Println(h.Doc)
	}
	// Output:
	// b
	// c
}

// The simulated BOSS accelerator returns the same hits as the software
// engine plus an execution profile over storage-class memory.
func ExampleIndex_Accelerator() {
	b := boss.NewBuilder()
	b.Add("x", "alpha beta gamma")
	b.Add("y", "alpha delta")
	ix := b.Build()

	acc := ix.Accelerator(boss.AccelOptions{})
	hits, stats, _ := acc.Search(`"alpha"`, 5)
	fmt.Println(len(hits), "hits")
	fmt.Println(stats.DocsEvaluated, "docs scored")
	fmt.Println(stats.HostBytes, "bytes to the host")
	// Output:
	// 2 hits
	// 2 docs scored
	// 16 bytes to the host
}

// Tokenization lowercases and splits on anything that is not a letter or
// digit.
func ExampleTokenize() {
	fmt.Println(boss.Tokenize("Compute-Express-Link (CXL) 3.0!"))
	// Output:
	// [compute express link cxl 3 0]
}

// Sharding a collection over several simulated memory nodes returns the
// same ranking as one monolithic index — shards score with global
// statistics (Figure 1(b)'s root/leaf deployment).
func ExampleShard() {
	single := boss.BuildSynthetic(boss.CCNewsLike, 0.004)
	sharded, _ := boss.Shard(boss.CCNewsLike, 0.004, 3)

	a, _ := single.Search(`"t0" OR "t3"`, 3)
	b, _, _ := sharded.Search(`"t0" OR "t3"`, 3)
	same := len(a) == len(b)
	for i := range a {
		if a[i].DocID != b[i].DocID {
			same = false
		}
	}
	fmt.Println("nodes:", sharded.Nodes(), "identical ranking:", same)
	// Output:
	// nodes: 3 identical ranking: true
}

// SearchFetchCtx runs a query and returns the stored payloads of the
// ranked hits in one call. Payload blocks decode through the same
// decoded-block cache as posting blocks, so re-fetching a hot document
// is a zero-copy cache hit — visible in the per-class hit-rate split.
func ExampleAccelerator_SearchFetchCtx() {
	b := boss.NewBuilder()
	b.Add("doc1", "alpha beta")
	b.Add("doc2", "alpha gamma delta")
	ix := b.Build()
	acc := ix.Accelerator(boss.AccelOptions{})

	ctx := context.Background()
	res, _ := acc.SearchFetchCtx(ctx, `"gamma"`, 10)
	fmt.Println(len(res.Hits), "hit:", res.Docs[0].Name, "/", res.Docs[0].Text)

	res, _ = acc.FetchDocsCtx(ctx, []uint32{res.Docs[0].DocID}) // hot re-fetch
	fmt.Println("re-fetched:", res.Docs[0].Text)
	fmt.Printf("doc-cache hit rate: %.2f\n", acc.DocCacheHitRate())
	// Output:
	// 1 hit: doc2 / alpha gamma delta
	// re-fetched: alpha gamma delta
	// doc-cache hit rate: 0.50
}

// The front-door serving tier coalesces identical concurrent queries
// into one execution and sheds load once its admission queue fills:
// here two "alpha" lookups share one device pass, and a fourth request
// arriving over a full queue is refused instead of blowing the
// deadlines of the admitted ones.
func ExampleAccelerator_Serve() {
	b := boss.NewBuilder()
	b.Add("doc1", "alpha beta")
	b.Add("doc2", "alpha gamma")
	ix := b.Build()
	acc := ix.Accelerator(boss.AccelOptions{})

	// A tiny queue and a far deadline make the example deterministic:
	// nothing flushes until we ask.
	srv, _ := acc.Serve(boss.FrontConfig{MaxQueue: 2, BatchTarget: 16, Timeout: time.Hour})
	defer srv.Close()

	t1, _ := srv.Submit(boss.ServeRequest{Expr: `"alpha"`, K: 10})
	t2, _ := srv.Submit(boss.ServeRequest{Expr: `"alpha"`, K: 10}) // coalesces with t1
	t3, _ := srv.Submit(boss.ServeRequest{Expr: `"beta"`, K: 10})
	_, err := srv.Submit(boss.ServeRequest{Expr: `"gamma"`, K: 10}) // queue full
	fmt.Println("overloaded:", errors.Is(err, boss.ErrOverloaded))

	srv.Flush()
	r1, _ := t1.Wait(context.Background())
	r2, _ := t2.Wait(context.Background())
	r3, _ := t3.Wait(context.Background())
	fmt.Println("alpha hits:", len(r1.Hits), "coalesced:", r2.DedupHit)
	fmt.Println("beta hits:", len(r3.Hits))
	st := srv.Stats()
	fmt.Println("executed:", st.Executed, "dedup hits:", st.DedupHits)
	// Output:
	// overloaded: true
	// alpha hits: 2 coalesced: true
	// beta hits: 1
	// executed: 2 dedup hits: 1
}
