package engine

import (
	"context"
	"testing"

	"boss/internal/corpus"
	"boss/internal/oracle"
	"boss/internal/pool"
	"boss/internal/query"
)

func batchNodes(f *testFixture) []*query.Node {
	var nodes []*query.Node
	for _, qt := range corpus.AllQueryTypes() {
		for _, q := range corpus.SampleQueries(f.c, qt, 4, 9) {
			nodes = append(nodes, query.MustParse(q.Expr))
		}
	}
	return nodes
}

// runBatch runs nodes as the facade's Index.SearchBatch does: each slot is
// run on the shared Engine by a pool.ForEach worker, and keeps its own
// result and error.
func runBatch(t *testing.T, e *Engine, nodes []*query.Node, k, workers int) ([]Result, []error) {
	t.Helper()
	res := make([]Result, len(nodes))
	errs := make([]error, len(nodes))
	n := pool.ForEach(context.Background(), len(nodes), workers, func(i int) {
		res[i], errs[i] = e.Run(nodes[i], k)
	})
	if n != len(nodes) {
		t.Fatalf("workers=%d: dispatched %d of %d queries", workers, n, len(nodes))
	}
	return res, errs
}

func TestRunBatchMatchesSequential(t *testing.T) {
	f := newFixture(t)
	nodes := batchNodes(f)
	res, errs := runBatch(t, f.eng, nodes, 25, 8)
	for i, node := range nodes {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		want, err := f.eng.Run(node, 25)
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.Same(res[i].TopK, want.TopK); err != nil {
			t.Fatalf("query %d: batch result differs from sequential: %v", i, err)
		}
		if res[i].M.ComputeTime != want.M.ComputeTime {
			t.Fatalf("query %d: batch metrics differ from sequential", i)
		}
	}
}

func TestRunBatchPropagatesErrors(t *testing.T) {
	f := newFixture(t)
	nodes := []*query.Node{
		query.MustParse(`"t0"`),
		query.MustParse(`"notaterm"`),
		query.MustParse(`"t1"`),
	}
	res, errs := runBatch(t, f.eng, nodes, 10, 2)
	// Per-query attribution: exactly the failing query has an error, and
	// it is the error a sequential Run reports.
	if errs[0] != nil || errs[2] != nil {
		t.Fatal("valid queries must have nil errors")
	}
	_, wantErr := f.eng.Run(nodes[1], 10)
	if wantErr == nil || errs[1] == nil || errs[1].Error() != wantErr.Error() {
		t.Fatalf("failing query's error = %v, want its sequential error %v", errs[1], wantErr)
	}
	// The valid queries still produced results.
	if len(res[0].TopK) == 0 || len(res[2].TopK) == 0 {
		t.Fatal("valid queries in a failing batch should still complete")
	}
}

// TestRunBatchWorkerClamping runs a batch with one worker, one worker per
// query and more workers than queries: every width runs each query once.
func TestRunBatchWorkerClamping(t *testing.T) {
	f := newFixture(t)
	nodes := batchNodes(f)[:2]
	for _, workers := range []int{1, 2, 100} {
		res, errs := runBatch(t, f.eng, nodes, 5, workers)
		for i := range nodes {
			if errs[i] != nil || len(res[i].TopK) == 0 {
				t.Fatalf("workers=%d query %d: batch failed: %v", workers, i, errs[i])
			}
		}
	}
}
