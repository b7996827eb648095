package concretize

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/spec"
)

// BatchError aggregates the failures of one ConcretizeAll call, keyed by
// the index of the offending abstract spec.
type BatchError struct {
	Errors map[int]error
}

func (e *BatchError) Error() string {
	idxs := make([]int, 0, len(e.Errors))
	for i := range e.Errors {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	parts := make([]string, 0, len(idxs))
	for _, i := range idxs {
		parts = append(parts, fmt.Sprintf("spec %d: %v", i, e.Errors[i]))
	}
	return fmt.Sprintf("concretize: %d of batch failed: %s", len(e.Errors), strings.Join(parts, "; "))
}

// Unwrap exposes the first failure (by index) for errors.Is/As chains.
func (e *BatchError) Unwrap() error {
	idxs := make([]int, 0, len(e.Errors))
	for i := range e.Errors {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	if len(idxs) == 0 {
		return nil
	}
	return e.Errors[idxs[0]]
}

// ConcretizeAll concretizes independent abstract specs across a bounded
// worker pool (Parallelism goroutines, defaulting to GOMAXPROCS), sharing
// this concretizer's memo cache, statistics, and policies. Each root is an
// independent solve — the paper's concretizer has no cross-root coupling —
// so batch workloads like the ARES 36-configuration matrix and the Fig. 8
// repository sweep parallelize embarrassingly. With a memo cache attached,
// duplicate specs within one batch are solved once: copies that run at once
// on a cold key share one solve (see ConcretizeCached), and later ones hit
// the cache. Without a cache each copy solves.
//
// The result slice is index-aligned with the input; failed entries are nil
// and their errors are collected into a *BatchError (nil when every spec
// concretized). Inputs are not modified.
func (c *Concretizer) ConcretizeAll(abstracts []*spec.Spec) ([]*spec.Spec, error) {
	out := make([]*spec.Spec, len(abstracts))
	if len(abstracts) == 0 {
		return out, nil
	}
	workers := c.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(abstracts) {
		workers = len(abstracts)
	}
	errs := make([]error, len(abstracts))
	work := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range work {
				out[i], errs[i] = c.Concretize(abstracts[i])
			}
		}()
	}
	for i := range abstracts {
		work <- i
	}
	close(work)
	wg.Wait()

	failed := make(map[int]error)
	for i, err := range errs {
		if err != nil {
			failed[i] = err
		}
	}
	if len(failed) > 0 {
		return out, &BatchError{Errors: failed}
	}
	return out, nil
}
