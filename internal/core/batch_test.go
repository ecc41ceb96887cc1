package core

import (
	"reflect"
	"sync"
	"testing"

	"boss/internal/corpus"
	"boss/internal/perf"
	"boss/internal/query"
)

// TestAcceleratorParallelDeterminism is the concurrency contract the
// Accelerator doc comment promises: N goroutines hammering Exec on one
// shared Accelerator must each observe exactly the serial result — same
// top-k, same metrics — because Exec keeps all mutable state on its own
// stack. Run under -race this also proves the absence of data races.
func TestAcceleratorParallelDeterminism(t *testing.T) {
	f := newFixture(t)
	acc := New(f.idx, DefaultOptions())

	var nodes []*query.Node
	for _, qt := range corpus.AllQueryTypes() {
		for _, q := range corpus.SampleQueries(f.c, qt, 4, 99) {
			nodes = append(nodes, query.MustParse(q.Expr))
		}
	}
	const k = 25

	// Serial baseline, computed once up front.
	want := make([]Result, len(nodes))
	for i, n := range nodes {
		r, err := acc.Exec(nil, n.Plan(), k)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Stagger start offsets so goroutines interleave on different
			// queries rather than marching in lockstep.
			for off := 0; off < len(nodes); off++ {
				i := (off + g*3) % len(nodes)
				r, err := acc.Exec(nil, nodes[i].Plan(), k)
				if err != nil {
					errs[g] = err
					return
				}
				if !reflect.DeepEqual(r.TopK, want[i].TopK) {
					t.Errorf("goroutine %d query %d: parallel top-k differs from serial", g, i)
					return
				}
				if !reflect.DeepEqual(r.M, want[i].M) {
					t.Errorf("goroutine %d query %d: parallel metrics differ from serial", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

func TestAcceleratorRunBatchMatchesSerial(t *testing.T) {
	f := newFixture(t)
	acc := New(f.idx, DefaultOptions())

	var plans []query.Plan
	for _, qt := range corpus.AllQueryTypes() {
		for _, q := range corpus.SampleQueries(f.c, qt, 3, 7) {
			plans = append(plans, query.MustParse(q.Expr).Plan())
		}
	}
	const k = 30

	wantAgg := perf.NewMetrics()
	want := make([]Result, len(plans))
	for i, pl := range plans {
		r, err := acc.Exec(nil, pl, k)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
		wantAgg.Merge(r.M)
	}

	for _, workers := range []int{0, 1, 3, 16} {
		br := acc.RunBatch(plans, k, workers)
		if br.Err != nil {
			t.Fatalf("workers=%d: %v", workers, br.Err)
		}
		if len(br.Results) != len(plans) || len(br.Errs) != len(plans) {
			t.Fatalf("workers=%d: result/err count mismatch", workers)
		}
		for i := range plans {
			if br.Errs[i] != nil {
				t.Fatalf("workers=%d query %d: %v", workers, i, br.Errs[i])
			}
			if !reflect.DeepEqual(br.Results[i].TopK, want[i].TopK) {
				t.Fatalf("workers=%d query %d: batch top-k differs from serial", workers, i)
			}
			if !reflect.DeepEqual(br.Results[i].M, want[i].M) {
				t.Fatalf("workers=%d query %d: batch metrics differ from serial", workers, i)
			}
		}
		if !reflect.DeepEqual(br.Aggregate, wantAgg) {
			t.Fatalf("workers=%d: aggregate metrics differ from serial merge", workers)
		}
	}
}

func TestAcceleratorRunBatchErrors(t *testing.T) {
	f := newFixture(t)
	acc := New(f.idx, DefaultOptions())

	good := query.MustParse(`"t0"`).Plan()
	bad := query.MustParse(`"nosuchtermzz"`).Plan()
	br := acc.RunBatch([]query.Plan{good, bad, good}, 10, 2)
	if br.Err == nil {
		t.Fatal("batch with an unknown term should surface an error")
	}
	if br.Errs[0] != nil || br.Errs[2] != nil {
		t.Fatal("good queries must not be poisoned by a failing neighbor")
	}
	if br.Errs[1] == nil || br.Err != br.Errs[1] {
		t.Fatal("Err should be the first failing query's error")
	}
	if len(br.Results[0].TopK) == 0 || len(br.Results[2].TopK) == 0 {
		t.Fatal("good queries should still produce results")
	}
	if br.Aggregate == nil || br.Aggregate.SeqReadBytes == 0 {
		t.Fatal("aggregate should cover the successful queries")
	}

	empty := acc.RunBatch(nil, 10, 4)
	if empty.Err != nil || len(empty.Results) != 0 {
		t.Fatal("empty batch should succeed vacuously")
	}
}
