package pool

import (
	"context"
	"reflect"
	"testing"
)

// TestClusterSearchWorkerWidths exercises the explicit Workers settings,
// including the inline workers==1 path.
func TestClusterSearchWorkerWidths(t *testing.T) {
	c, _, _ := clusterFixture(t, 4)
	ref := mustCluster(t, DefaultConfig(), c, 4)
	want, err := ref.SearchSerial(`"t0" OR "t1"`, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 16} {
		cfg := DefaultConfig()
		cfg.Workers = w
		cl := mustCluster(t, cfg, c, 4)
		got, err := cl.Search(`"t0" OR "t1"`, 20)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.TopK, want.TopK) {
			t.Fatalf("workers=%d: result differs from serial reference", w)
		}
	}
}

func TestClusterSearchBatchErrors(t *testing.T) {
	_, _, cl := clusterFixture(t, 3)
	exprs := []string{`"t0"`, `"nosuchtermzz"`, `bad syntax`, `"t1"`}
	br := runBatch(context.Background(), cl, Queries(exprs, 10))
	if br.Err == nil {
		t.Fatal("batch containing bad queries should surface an error")
	}
	if br.Errs[0] != nil || br.Errs[3] != nil {
		t.Fatal("good queries must not be poisoned by failing neighbors")
	}
	if br.Errs[1] == nil || br.Errs[2] == nil {
		t.Fatal("both bad queries should record their own error")
	}
	if br.Err != br.Errs[1] {
		t.Fatal("Err should be the first failing query's error in input order")
	}
	if len(br.Results[0].TopK) == 0 || len(br.Results[3].TopK) == 0 {
		t.Fatal("good queries should still produce results")
	}
	if !reflect.DeepEqual(br.Results[1], ClusterResult{}) || !reflect.DeepEqual(br.Results[2], ClusterResult{}) {
		t.Fatal("failed queries should leave empty results")
	}

	empty := runBatch(context.Background(), cl, nil)
	if empty.Err != nil || len(empty.Results) != 0 {
		t.Fatal("empty batch should succeed vacuously")
	}
}
