// Package metrics collects the software counters and timing statistics the
// benchmark harness reports. The counters stand in for the hardware profiling
// of the paper (nvprof warp occupancy, PAPI cache miss rates, Figure 9): they
// measure the same directional quantities — how much work each push performs,
// how much of it is synchronization, and how well the frontier keeps the
// workers occupied — using portable software instrumentation.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"
)

// Counters records the work performed by a push engine while processing one
// or more batches. All fields are updated with atomic adds so the parallel
// engines can share one Counters value across workers.
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
	// RandomAccesses approximates irregular memory accesses: every residual
	// update of a neighbor counts one (the proxy for cache misses / global
	// load efficiency of Figure 9).
	RandomAccesses int64
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

// AddRandomAccesses atomically adds n irregular memory accesses.
func (c *Counters) AddRandomAccesses(n int64) { atomic.AddInt64(&c.RandomAccesses, n) }

// ObserveIteration records one push round over a frontier of the given size.
func (c *Counters) ObserveIteration(frontierSize int) {
	atomic.AddInt64(&c.Iterations, 1)
	atomic.AddInt64(&c.FrontierTotal, int64(frontierSize))
	for {
		cur := atomic.LoadInt64(&c.FrontierPeak)
		if int64(frontierSize) <= cur {
			return
		}
		if atomic.CompareAndSwapInt64(&c.FrontierPeak, cur, int64(frontierSize)) {
			return
		}
	}
}

// TotalOperations returns the operation count used by the complexity
// analysis: pushes plus neighbor propagations plus invariant restorations.
func (c *Counters) TotalOperations() int64 {
	return atomic.LoadInt64(&c.Pushes) + atomic.LoadInt64(&c.Propagations) + atomic.LoadInt64(&c.RestoreOps)
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

// Merge adds other's counts into c (not atomic; use between runs).
func (c *Counters) Merge(other *Counters) {
	c.Pushes += other.Pushes
	c.Propagations += other.Propagations
	c.AtomicAdds += other.AtomicAdds
	c.Enqueues += other.Enqueues
	c.DuplicateAttempts += other.DuplicateAttempts
	c.Iterations += other.Iterations
	c.FrontierTotal += other.FrontierTotal
	if other.FrontierPeak > c.FrontierPeak {
		c.FrontierPeak = other.FrontierPeak
	}
	c.RestoreOps += other.RestoreOps
	c.RandomAccesses += other.RandomAccesses
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
		RandomAccesses:    atomic.LoadInt64(&c.RandomAccesses),
	}
}

// String formats the counters compactly.
func (c *Counters) String() string {
	s := c.Snapshot()
	return fmt.Sprintf("pushes=%d props=%d atomics=%d enq=%d dup=%d iters=%d peakFQ=%d restores=%d",
		s.Pushes, s.Propagations, s.AtomicAdds, s.Enqueues, s.DuplicateAttempts,
		s.Iterations, s.FrontierPeak, s.RestoreOps)
}

// DefaultLatencyWindow is the percentile window a zero-value LatencyStats
// adopts on its first Observe: percentiles are computed over the most
// recent DefaultLatencyWindow samples while Count, Mean, Max and Throughput
// stay exact over every sample ever observed.
const DefaultLatencyWindow = 8192

// LatencyStats summarizes a sequence of latencies in bounded memory. The
// totals (Count, Mean, Max, Throughput) are exact running aggregates;
// percentiles are computed over a fixed-size ring of the most recent
// samples, so a long-running server can feed one forever without the
// unbounded growth (and ever-larger Percentile sorts) the old
// append-everything implementation suffered from.
type LatencyStats struct {
	// window is the ring capacity; 0 selects DefaultLatencyWindow lazily so
	// the zero value keeps working.
	window  int
	samples []time.Duration // ring storage, len == min(count, window)
	next    int             // ring write cursor once the ring is full
	count   int64
	sum     time.Duration
	max     time.Duration
}

// NewLatencyStats returns stats whose percentile window holds the most
// recent window samples; window <= 0 selects DefaultLatencyWindow.
func NewLatencyStats(window int) *LatencyStats {
	if window <= 0 {
		window = DefaultLatencyWindow
	}
	return &LatencyStats{window: window}
}

// Observe records one latency sample.
func (l *LatencyStats) Observe(d time.Duration) {
	if l.window == 0 {
		l.window = DefaultLatencyWindow
	}
	if len(l.samples) < l.window {
		l.samples = append(l.samples, d)
	} else {
		l.samples[l.next] = d
		l.next = (l.next + 1) % l.window
	}
	l.count++
	l.sum += d
	if d > l.max {
		l.max = d
	}
}

// Count returns the total number of samples ever observed (not just the
// ones still inside the percentile window).
func (l *LatencyStats) Count() int { return int(l.count) }

// AddAll merges other's aggregates and windowed samples into l (for
// combining per-worker stats). The merged percentile window holds the union
// of both windows, clipped to l's capacity.
func (l *LatencyStats) AddAll(other *LatencyStats) {
	for _, d := range other.liveSamples() {
		l.Observe(d)
	}
	// Observe already advanced count/sum by the live samples; fold in the
	// aggregates of the samples other's window had already evicted.
	evicted := other.count - int64(len(other.samples))
	l.count += evicted
	l.sum += other.sum - other.liveSum()
	if other.max > l.max {
		l.max = other.max
	}
}

// liveSamples returns the windowed samples oldest first.
func (l *LatencyStats) liveSamples() []time.Duration {
	if len(l.samples) < l.window || l.next == 0 {
		return l.samples
	}
	out := make([]time.Duration, 0, len(l.samples))
	out = append(out, l.samples[l.next:]...)
	out = append(out, l.samples[:l.next]...)
	return out
}

func (l *LatencyStats) liveSum() time.Duration {
	var total time.Duration
	for _, d := range l.samples {
		total += d
	}
	return total
}

// Mean returns the average latency over all samples (0 with no samples).
func (l *LatencyStats) Mean() time.Duration {
	if l.count == 0 {
		return 0
	}
	return l.sum / time.Duration(l.count)
}

// Percentile returns the p-th percentile latency, p in [0,100], over the
// most recent window of samples.
func (l *LatencyStats) Percentile(p float64) time.Duration {
	return l.Percentiles(p)[0]
}

// Percentiles returns the percentile latency for each p in ps, sorting the
// window once however many are asked for.
func (l *LatencyStats) Percentiles(ps ...float64) []time.Duration {
	out := make([]time.Duration, len(ps))
	if len(l.samples) == 0 {
		return out
	}
	sorted := slices.Clone(l.samples)
	slices.Sort(sorted)
	for i, p := range ps {
		idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
		out[i] = sorted[min(max(idx, 0), len(sorted)-1)]
	}
	return out
}

// Max returns the largest sample ever observed.
func (l *LatencyStats) Max() time.Duration {
	return l.max
}

// Sum returns the total of all observed samples.
func (l *LatencyStats) Sum() time.Duration { return l.sum }

// Throughput converts a number of processed items and the total elapsed time
// of the samples into items per second.
func (l *LatencyStats) Throughput(items int64) float64 {
	if l.sum <= 0 {
		return 0
	}
	return float64(items) / l.sum.Seconds()
}
