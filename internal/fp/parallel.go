package fp

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the default degree of parallelism used by the
// parallel engines when the caller does not specify one.
func DefaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// Cutover is the frontier size at or below which the parallel push engines
// run a round on one worker, inline on the calling goroutine: fan-out
// overhead dominates small frontiers, and the incremental batches of a
// converged tracker rarely activate more than a few dozen vertices.
const Cutover = 128

// ClampWorkers normalizes a requested worker count: values <= 0 select
// GOMAXPROCS (DefaultWorkers).
func ClampWorkers(w int) int {
	if w <= 0 {
		return DefaultWorkers()
	}
	return w
}

// For runs body(i) for every i in [0, n) using up to workers goroutines.
// Iterations are distributed in contiguous chunks to keep per-vertex state
// access cache friendly, mirroring the grain-size scheduling of the CilkPlus
// parallel for the paper uses.
//
// If workers <= 1 or n is small, the loop runs inline on the calling
// goroutine; this keeps the sequential baselines free of goroutine overhead.
func For(n, workers int, body func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				body(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// ForDynamic runs body(i) for every i in [0, n) using up to workers
// goroutines with dynamic (work-stealing-like) scheduling: workers repeatedly
// claim fixed-size blocks of iterations with an atomic counter. This is the
// scheduler used for frontier loops whose per-item cost is highly skewed
// (e.g. pushing a high-degree frontier vertex next to low-degree ones).
func ForDynamic(n, workers, grain int, body func(i int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	if workers <= 1 || n <= grain {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(atomic.AddInt64(&next, int64(grain))) - grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					body(i)
				}
			}
		}()
	}
	wg.Wait()
}
