package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// The bucket layout is fixed at compile time so every histogram — across
// endpoints, load-generator clients and server instances — can be merged by
// adding counts. Bucket 0 holds every latency ≤ 2^minExp ns (≈ 8.2 µs);
// above it there are two buckets per power of two, split at 1.5·2^k ns, up
// to 2^maxExp ns (≈ 68.7 s); the last bucket is +Inf. Bucket i holds
// (UpperBound(i-1), UpperBound(i)], the Prometheus `le` convention.
const (
	minExp = 13
	maxExp = 36
	// NumBuckets counts the finite buckets plus +Inf.
	NumBuckets = 2*(maxExp-minExp) + 2
)

// UpperBound returns bucket i's inclusive upper bound; the last bucket's is
// +Inf, returned as math.MaxInt64.
func UpperBound(i int) time.Duration {
	switch {
	case i == 0:
		return 1 << minExp
	case i >= NumBuckets-1:
		return math.MaxInt64
	case i%2 == 1:
		return 3 << (minExp + (i-1)/2 - 1)
	default:
		return 1 << (minExp + i/2)
	}
}

// bucketOf returns the bucket of a latency of d ns: for d-1, its bit length
// picks the power of two and the bit below the leading one picks the half,
// so d = 2^k falls in the bucket ending at 2^k.
func bucketOf(d time.Duration) int {
	if d <= 1<<minExp {
		return 0
	}
	v := uint64(d - 1)
	l := bits.Len64(v)
	i := 2*(l-minExp-1) + 1 + int(v>>(l-2)&1)
	return min(i, NumBuckets-1)
}

// Histogram is a latency distribution in the fixed log-bucket layout above.
// Counts, sum and max are atomics: Observe takes no lock and allocates
// nothing, and every reader is safe concurrently with it. Quantile
// estimates never leave the bucket of the exact order statistic, so their
// relative error is below the bucket width (≤ 50 %); Count, Sum, Mean and
// Max are exact. The zero value is ready to use; do not copy one after use.
type Histogram struct {
	counts [NumBuckets]atomic.Int64
	sum    atomic.Int64 // ns
	max    atomic.Int64 // ns
}

// Observe records one latency; a negative one counts as 0.
func (h *Histogram) Observe(d time.Duration) {
	d = max(d, 0)
	h.counts[bucketOf(d)].Add(1)
	h.sum.Add(int64(d))
	h.raiseMax(int64(d))
}

func (h *Histogram) raiseMax(v int64) {
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Merge adds every observation of o into h, exactly: the result is the
// histogram of the union of both inputs.
func (h *Histogram) Merge(o *Histogram) {
	for i := range h.counts {
		h.counts[i].Add(o.counts[i].Load())
	}
	h.sum.Add(o.sum.Load())
	h.raiseMax(o.max.Load())
}

// Counts returns each bucket's (non-cumulative) count.
func (h *Histogram) Counts() [NumBuckets]int64 {
	var out [NumBuckets]int64
	for i := range out {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Max returns the largest observation (0 with none).
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Mean returns the average observation (0 with none).
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / time.Duration(n)
}

// Quantile estimates the q-quantile, q in [0,1], by linear interpolation
// inside the bucket that holds rank q·Count — Prometheus'
// histogram_quantile over the same buckets — with Max as the +Inf bucket's
// upper edge and as a ceiling on every estimate. 0 with no observations.
func (h *Histogram) Quantile(q float64) time.Duration {
	counts := h.Counts()
	var n int64
	for _, c := range counts {
		n += c
	}
	top := h.Max()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum int64
	for i, c := range counts {
		if c == 0 || float64(cum+c) < rank {
			cum += c
			continue
		}
		lo, hi := 0.0, float64(top)
		if i > 0 {
			lo = float64(UpperBound(i - 1))
		}
		if i < NumBuckets-1 {
			hi = float64(UpperBound(i))
		}
		est := time.Duration(math.Ceil(lo + (hi-lo)*(rank-float64(cum))/float64(c)))
		return min(est, top)
	}
	return top
}
