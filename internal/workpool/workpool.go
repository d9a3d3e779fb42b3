// Package workpool is the deterministic fan-out helper behind the parallel
// experiment runner: it spreads independent, index-identified work items
// over a bounded set of goroutines and returns the results *ordered by
// index*, never by completion order. Because every work item in this
// repository derives all of its randomness from its index (session seeds,
// trial seeds, grid cells), running under any worker count produces output
// bit-identical to the sequential loop it replaces.
package workpool

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Normalize resolves a worker-count setting: values <= 0 mean "one worker
// per available CPU" (runtime.GOMAXPROCS(0)), 1 means sequential, and
// larger values are returned unchanged.
func Normalize(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Map runs fn(0), fn(1), ..., fn(n-1) on up to workers goroutines and
// returns the n results in index order. workers is Normalize-d first.
//
// With one worker, Map degenerates to the plain sequential loop: fn runs
// inline on the calling goroutine, in order, stopping at the first error —
// the legacy execution path, kept allocation- and goroutine-free.
//
// With more workers, items are handed out in index order as workers free
// up. All items run to completion even if one fails; the error returned is
// the failing item with the lowest index (deterministic regardless of
// completion order), in which case the results are discarded. An item
// whose fn never returned — it ended its worker through runtime.Goexit —
// fails, and so does every item no worker was left to claim.
func Map[T any](workers, n int, fn func(int) (T, error)) ([]T, error) {
	workers = Normalize(workers)
	if n <= 0 {
		return nil, nil
	}
	results := make([]T, n)
	if workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			r, err := fn(i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}
	if workers > n {
		workers = n
	}
	// Each item's error stands at errNoReturn until its fn returns.
	errs := make([]error, n)
	for i := range errs {
		errs[i] = errNoReturn
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err == errNoReturn {
			return nil, fmt.Errorf("workpool: item %d: %w", i, err)
		}
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// errNoReturn marks an item whose fn did not return: its worker exited
// inside it (runtime.Goexit), or every worker did before claiming it.
var errNoReturn = errors.New("fn did not return (its worker goroutine exited)")
