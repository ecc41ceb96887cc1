package core_test

import (
	"context"
	"reflect"
	"testing"

	"boss/internal/compress"
	"boss/internal/core"
	"boss/internal/corpus"
	"boss/internal/index"
	"boss/internal/pool"
	"boss/internal/query"
)

// runBatch runs exprs as the facade's Accelerator.SearchBatch does: each
// slot is prepared and executed on the shared Accelerator by a pool.ForEach
// worker, and keeps its own result and error.
func runBatch(t *testing.T, acc *core.Accelerator, exprs []string, k, workers int) ([]core.Result, []error) {
	t.Helper()
	res := make([]core.Result, len(exprs))
	errs := make([]error, len(exprs))
	n := pool.ForEach(context.Background(), len(exprs), workers, func(i int) {
		p, err := query.Prepare(exprs[i])
		if err != nil {
			errs[i] = err
			return
		}
		res[i], errs[i] = acc.Exec(nil, p.Plan, k)
	})
	if n != len(exprs) {
		t.Fatalf("workers=%d: dispatched %d of %d queries", workers, n, len(exprs))
	}
	return res, errs
}

func newBatchAccelerator(t *testing.T) (*corpus.Corpus, *core.Accelerator) {
	t.Helper()
	c := corpus.Generate(corpus.CCNewsLike(0.004))
	idx := index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid})
	return c, core.New(idx, core.DefaultOptions())
}

func TestAcceleratorRunBatchMatchesSerial(t *testing.T) {
	c, acc := newBatchAccelerator(t)

	var exprs []string
	for _, qt := range corpus.AllQueryTypes() {
		for _, q := range corpus.SampleQueries(c, qt, 3, 7) {
			exprs = append(exprs, q.Expr)
		}
	}
	const k = 30

	want := make([]core.Result, len(exprs))
	for i, e := range exprs {
		r, err := acc.Exec(nil, query.MustParse(e).Plan(), k)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	for _, workers := range []int{1, 3, 16} {
		res, errs := runBatch(t, acc, exprs, k, workers)
		for i := range exprs {
			if errs[i] != nil {
				t.Fatalf("workers=%d query %d: %v", workers, i, errs[i])
			}
			if !reflect.DeepEqual(res[i].TopK, want[i].TopK) {
				t.Fatalf("workers=%d query %d: batch top-k differs from serial", workers, i)
			}
			if !reflect.DeepEqual(res[i].M, want[i].M) {
				t.Fatalf("workers=%d query %d: batch metrics differ from serial", workers, i)
			}
		}
	}
}

func TestAcceleratorRunBatchErrors(t *testing.T) {
	_, acc := newBatchAccelerator(t)

	exprs := []string{`"t0"`, `"nosuchtermzz"`, `"t0"`}
	res, errs := runBatch(t, acc, exprs, 10, 2)
	if errs[0] != nil || errs[2] != nil {
		t.Fatal("good queries must not be poisoned by a failing neighbor")
	}
	_, wantErr := acc.Exec(nil, query.MustParse(exprs[1]).Plan(), 10)
	if wantErr == nil || errs[1] == nil || errs[1].Error() != wantErr.Error() {
		t.Fatalf("failing query's error = %v, want its serial error %v", errs[1], wantErr)
	}
	if len(res[0].TopK) == 0 || len(res[2].TopK) == 0 {
		t.Fatal("good queries should still produce results")
	}
	if res[0].M == nil || res[0].M.SeqReadBytes == 0 {
		t.Fatal("good queries should carry their own metrics")
	}

	res, errs = runBatch(t, acc, nil, 10, 0)
	if len(res) != 0 || len(errs) != 0 {
		t.Fatal("empty batch should succeed vacuously")
	}
}
