// Package metrics collects the software counters the benchmark harness
// reports and Histogram, the one instrument every latency distribution in
// the tree is kept in. The counters stand in for the hardware profiling of
// the paper (nvprof warp occupancy, PAPI cache miss rates, Figure 9): they
// measure the same directional quantities — how much work each push
// performs, how much of it is synchronization, and how well the frontier
// keeps the workers occupied — using portable software instrumentation.
package metrics

import (
	"fmt"
	"sync/atomic"
)

// Counters records the work performed by a push engine while processing one
// or more batches. All fields are updated with atomic adds so the parallel
// engines can share one Counters value across workers; a kernel that tallies
// its work in locals publishes it with one Merge.
type Counters struct {
	// Pushes counts push operations (one per frontier vertex processed).
	Pushes int64
	// Propagations counts residual propagations to individual in-neighbors
	// (the inner-loop work, proportional to memory traffic).
	Propagations int64
	// AtomicAdds counts atomic read-modify-write operations on shared state.
	AtomicAdds int64
	// Enqueues counts vertices appended to the next frontier.
	Enqueues int64
	// DuplicateAttempts counts enqueue attempts rejected by global duplicate
	// detection (the synchronization the local-duplicate-detection
	// optimization removes).
	DuplicateAttempts int64
	// Iterations counts push rounds (frontier generations).
	Iterations int64
	// FrontierPeak is the largest frontier observed.
	FrontierPeak int64
	// FrontierTotal accumulates frontier sizes over iterations (for the mean).
	FrontierTotal int64
	// RestoreOps counts invariant-restore operations.
	RestoreOps int64
}

// AddPushes atomically adds n push operations.
func (c *Counters) AddPushes(n int64) { atomic.AddInt64(&c.Pushes, n) }

// AddPropagations atomically adds n neighbor propagations.
func (c *Counters) AddPropagations(n int64) { atomic.AddInt64(&c.Propagations, n) }

// AddAtomicAdds atomically adds n atomic operations.
func (c *Counters) AddAtomicAdds(n int64) { atomic.AddInt64(&c.AtomicAdds, n) }

// AddEnqueues atomically adds n frontier enqueues.
func (c *Counters) AddEnqueues(n int64) { atomic.AddInt64(&c.Enqueues, n) }

// AddDuplicateAttempts atomically adds n rejected duplicate enqueues.
func (c *Counters) AddDuplicateAttempts(n int64) { atomic.AddInt64(&c.DuplicateAttempts, n) }

// AddRestoreOps atomically adds n invariant restorations.
func (c *Counters) AddRestoreOps(n int64) { atomic.AddInt64(&c.RestoreOps, n) }

// ObserveIteration records one push round over a frontier of the given size.
func (c *Counters) ObserveIteration(frontierSize int) {
	atomic.AddInt64(&c.Iterations, 1)
	atomic.AddInt64(&c.FrontierTotal, int64(frontierSize))
	c.raisePeak(int64(frontierSize))
}

// raisePeak atomically lifts FrontierPeak to at least size.
func (c *Counters) raisePeak(size int64) {
	for {
		cur := atomic.LoadInt64(&c.FrontierPeak)
		if size <= cur || atomic.CompareAndSwapInt64(&c.FrontierPeak, cur, size) {
			return
		}
	}
}

// MeanFrontier returns the average frontier size per iteration.
func (c *Counters) MeanFrontier() float64 {
	it := atomic.LoadInt64(&c.Iterations)
	if it == 0 {
		return 0
	}
	return float64(atomic.LoadInt64(&c.FrontierTotal)) / float64(it)
}

// Reset zeroes every counter.
func (c *Counters) Reset() { *c = Counters{} }

// Merge adds other's counts into c and lifts c's FrontierPeak to other's.
// Each field of c is updated atomically (an add, or a compare-and-swap for
// the peak), so any number of goroutines may merge into one Counters while
// others add to or read it; other itself is read plainly and must not be
// written concurrently. The fields move one at a time: a concurrent
// Snapshot may see part of a merge.
func (c *Counters) Merge(other *Counters) {
	atomic.AddInt64(&c.Pushes, other.Pushes)
	atomic.AddInt64(&c.Propagations, other.Propagations)
	atomic.AddInt64(&c.AtomicAdds, other.AtomicAdds)
	atomic.AddInt64(&c.Enqueues, other.Enqueues)
	atomic.AddInt64(&c.DuplicateAttempts, other.DuplicateAttempts)
	atomic.AddInt64(&c.Iterations, other.Iterations)
	atomic.AddInt64(&c.FrontierTotal, other.FrontierTotal)
	c.raisePeak(other.FrontierPeak)
	atomic.AddInt64(&c.RestoreOps, other.RestoreOps)
}

// Snapshot returns a copy of the counters read atomically field by field.
func (c *Counters) Snapshot() Counters {
	return Counters{
		Pushes:            atomic.LoadInt64(&c.Pushes),
		Propagations:      atomic.LoadInt64(&c.Propagations),
		AtomicAdds:        atomic.LoadInt64(&c.AtomicAdds),
		Enqueues:          atomic.LoadInt64(&c.Enqueues),
		DuplicateAttempts: atomic.LoadInt64(&c.DuplicateAttempts),
		Iterations:        atomic.LoadInt64(&c.Iterations),
		FrontierPeak:      atomic.LoadInt64(&c.FrontierPeak),
		FrontierTotal:     atomic.LoadInt64(&c.FrontierTotal),
		RestoreOps:        atomic.LoadInt64(&c.RestoreOps),
	}
}

// String formats the counters compactly.
func (c *Counters) String() string {
	s := c.Snapshot()
	return fmt.Sprintf("pushes=%d props=%d atomics=%d enq=%d dup=%d iters=%d peakFQ=%d restores=%d",
		s.Pushes, s.Propagations, s.AtomicAdds, s.Enqueues, s.DuplicateAttempts,
		s.Iterations, s.FrontierPeak, s.RestoreOps)
}
