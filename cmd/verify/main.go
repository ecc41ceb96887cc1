// Command verify cross-validates every engine in the repository on a fresh
// synthetic corpus: the software engine, the IIU model, all three BOSS
// early-termination variants, the sharded cluster, and the fixed-point
// scoring path are all checked against a brute-force reference evaluator.
// It exits nonzero on any mismatch — a release gate for the models'
// correctness claims.
//
// Usage:
//
//	verify -scale 0.02 -queries 20 -seed 7
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"

	"boss/internal/compress"
	"boss/internal/core"
	"boss/internal/corpus"
	"boss/internal/engine"
	"boss/internal/iiu"
	"boss/internal/index"
	"boss/internal/pool"
	"boss/internal/query"
	"boss/internal/topk"
)

func main() {
	var (
		scale    = flag.Float64("scale", 0.015, "corpus scale in (0,1]")
		nQueries = flag.Int("queries", 12, "queries per Table II type")
		k        = flag.Int("k", 25, "top-k depth")
		seed     = flag.Int64("seed", 1, "workload seed")
		shards   = flag.Int("shards", 3, "cluster shard count")
	)
	flag.Parse()

	fmt.Printf("generating corpus (scale %.3f) and building indexes...\n", *scale)
	c := corpus.Generate(corpus.CCNewsLike(*scale))
	hybrid := index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid})
	fixed := index.Build(c, index.BuildOptions{Scheme: compress.BP})
	cluster, err := pool.NewCluster(pool.DefaultConfig(), c, *shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	type system struct {
		name string
		run  func(node *query.Node) ([]topk.Entry, error)
	}
	systems := []system{
		{"engine", func(n *query.Node) ([]topk.Entry, error) {
			r, err := engine.New(hybrid).Run(n, *k)
			return r.TopK, err
		}},
		{"iiu", func(n *query.Node) ([]topk.Entry, error) {
			r, err := iiu.New(fixed).Run(n, *k)
			return r.TopK, err
		}},
		{"boss", func(n *query.Node) ([]topk.Entry, error) {
			r, err := core.New(hybrid, core.DefaultOptions()).Exec(nil, n.Plan(), *k)
			return r.TopK, err
		}},
		{"boss-exhaustive", func(n *query.Node) ([]topk.Entry, error) {
			r, err := core.New(hybrid, core.ExhaustiveOptions()).Exec(nil, n.Plan(), *k)
			return r.TopK, err
		}},
		{"boss-block-only", func(n *query.Node) ([]topk.Entry, error) {
			r, err := core.New(hybrid, core.BlockOnlyOptions()).Exec(nil, n.Plan(), *k)
			return r.TopK, err
		}},
		{"cluster", func(n *query.Node) ([]topk.Entry, error) {
			r, err := cluster.Search(n.String(), *k)
			if err != nil {
				return nil, err
			}
			return r.TopK, nil
		}},
	}

	failures := 0
	checked := 0
	for _, qt := range corpus.AllQueryTypes() {
		for _, q := range corpus.SampleQueries(c, qt, *nQueries, *seed) {
			node := query.MustParse(q.Expr)
			want := bruteForce(c, hybrid, node, *k)
			for _, sys := range systems {
				got, err := sys.run(node)
				if err != nil {
					fmt.Printf("FAIL %-16s %s: %v\n", sys.name, q.Expr, err)
					failures++
					continue
				}
				if !agree(got, want) {
					fmt.Printf("FAIL %-16s %s: top-k differs from brute force\n", sys.name, q.Expr)
					failures++
				}
				checked++
			}
		}
	}

	fmt.Printf("\n%d system×query checks", checked)
	if failures > 0 {
		fmt.Printf(", %d FAILURES\n", failures)
		os.Exit(1)
	}
	fmt.Println(", all consistent with brute force")
}

// bruteForce evaluates the query directly over raw corpus postings.
func bruteForce(c *corpus.Corpus, idx *index.Index, node *query.Node, k int) []topk.Entry {
	scores := eval(c, idx, node)
	entries := make([]topk.Entry, 0, len(scores))
	for doc, s := range scores {
		entries = append(entries, topk.Entry{DocID: doc, Score: s})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Score != entries[j].Score {
			return entries[i].Score > entries[j].Score
		}
		return entries[i].DocID < entries[j].DocID
	})
	if len(entries) > k {
		entries = entries[:k]
	}
	return entries
}

func eval(c *corpus.Corpus, idx *index.Index, node *query.Node) map[uint32]float64 {
	switch node.Op {
	case query.OpTerm:
		pl := idx.MustList(node.Term)
		out := make(map[uint32]float64)
		for _, p := range c.Term(node.Term) {
			out[p.DocID] = idx.TermScore(pl, p.DocID, p.TF)
		}
		return out
	case query.OpAnd:
		result := eval(c, idx, node.Children[0])
		for _, child := range node.Children[1:] {
			cs := eval(c, idx, child)
			for doc := range result {
				if add, ok := cs[doc]; ok {
					result[doc] += add
				} else {
					delete(result, doc)
				}
			}
		}
		return result
	case query.OpOr:
		result := make(map[uint32]float64)
		for _, child := range node.Children {
			for doc, s := range eval(c, idx, child) {
				result[doc] += s
			}
		}
		return result
	default:
		panic("unknown op")
	}
}

// agree compares rankings, tolerating permutations of equal scores and
// float summation-order drift.
func agree(a, b []topk.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i].Score-b[i].Score) > 1e-9 {
			return false
		}
		if a[i].DocID == b[i].DocID {
			continue
		}
		found := false
		for j := range b {
			if b[j].DocID == a[i].DocID && math.Abs(a[i].Score-b[j].Score) <= 1e-9 {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
