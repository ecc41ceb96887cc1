package core

import (
	"reflect"
	"sync"
	"testing"

	"boss/internal/corpus"
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
