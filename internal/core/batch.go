package core

import (
	"runtime"
	"sync"

	"boss/internal/perf"
	"boss/internal/query"
)

// BatchResult is the outcome of a concurrently executed query batch,
// mirroring engine.BatchResult so the software baseline and the accelerator
// model expose the same batch surface.
type BatchResult struct {
	// Results holds one Result per input query, in input order. A failed
	// query leaves a zero-value Result; consult Errs to distinguish it from
	// an empty result.
	Results []Result
	// Errs holds one entry per input query (nil for successes).
	Errs []error
	// Err is the first error in input order (remaining queries still run).
	Err error
	// Aggregate merges every successful query's work metrics.
	Aggregate *perf.Metrics
}

// RunBatch executes queries concurrently on the given number of worker
// goroutines (0 = GOMAXPROCS), modeling a device whose cores each own one
// in-flight query. Results preserve input order and are bit-identical to
// running each query serially: the accelerator is stateless, so concurrent
// runs cannot observe each other.
func (a *Accelerator) RunBatch(plans []query.Plan, k, workers int) *BatchResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(plans) {
		workers = len(plans)
	}
	if workers < 1 {
		workers = 1
	}
	br := &BatchResult{
		Results:   make([]Result, len(plans)),
		Errs:      make([]error, len(plans)),
		Aggregate: perf.NewMetrics(),
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Workers write only their own indices, so no lock is needed.
			for i := range next {
				br.Results[i], br.Errs[i] = a.Exec(nil, plans[i], k)
			}
		}()
	}
	for i := range plans {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, r := range br.Results {
		if br.Errs[i] == nil && r.M != nil {
			br.Aggregate.Merge(r.M)
		}
		if br.Errs[i] != nil && br.Err == nil {
			br.Err = br.Errs[i]
		}
	}
	return br
}
