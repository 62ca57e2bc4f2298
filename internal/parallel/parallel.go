// Package parallel fans independent work items across a bounded worker
// pool while keeping aggregation deterministic: results come back in item
// order regardless of worker count or completion order, so callers that
// fold them serially produce byte-identical output at any parallelism.
//
// The experiment engine uses it to run (config, repetition) simulation
// cells concurrently — each cell derives every random draw from its own
// seed, so cells never share mutable state and the only ordering that
// matters is the aggregation order, which Map preserves.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count request: anything non-positive
// selects GOMAXPROCS (one worker per schedulable CPU).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map runs fn(0), …, fn(n-1) on up to workers goroutines and returns the
// results in index order. workers <= 0 selects GOMAXPROCS; workers == 1
// runs inline on the calling goroutine, with no goroutines spawned at all
// — exactly a plain loop.
//
// The first error stops the dispatch of not-yet-started items (items
// already running finish and their results are discarded) and is
// returned. fn must be safe to call concurrently from multiple
// goroutines when workers > 1.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		next   atomic.Int64 // next undispatched index
		failed atomic.Bool  // stops dispatch after the first error
		wg     sync.WaitGroup
		mu     sync.Mutex
		first  error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				v, err := fn(i)
				if err != nil {
					failed.Store(true)
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}
	return out, nil
}
