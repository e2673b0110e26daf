package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile (0 < q <= 1) of d by the nearest-rank
// rule: the smallest sample with at least a share q of the samples at or
// below it. It returns 0 for an empty slice and does not reorder d.
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(q*float64(len(s)) + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(d []time.Duration) time.Duration { return quantile(d, 0.5) }

// medianFloat is the statistical median (mean of the two middle values for
// an even count), the rule Python's statistics.median applies to the run
// values the driver compares.
func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartileSpread is the distance between the first and third quartile of v
// as a share of its median, with the quartiles of Python's
// statistics.quantiles(v, n=4) (the "exclusive" method): the figure the
// driver holds against a metric's bound.
func quartileSpread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := medianFloat(s)
	if med == 0 {
		return 0
	}
	return (cut(3) - cut(1)) / med
}

// best picks a metric's per-run value from its per-repetition values. The
// repetitions do identical work, and interference on a shared box only ever
// slows one down, so the best repetition is the least disturbed one.
func best(v []float64, higherIsBetter bool) float64 {
	if len(v) == 0 {
		return 0
	}
	b := v[0]
	for _, x := range v[1:] {
		if (higherIsBetter && x > b) || (!higherIsBetter && x < b) {
			b = x
		}
	}
	return b
}

// repSpread is the worst repetition over the best one, as a ratio >= 1.
func repSpread(v []float64) float64 {
	hi, lo := best(v, true), best(v, false)
	if lo <= 0 {
		return 0
	}
	return hi / lo
}

// selfTimes turns per-depth medians, ordered outermost first, into per-layer
// self times: each depth's median minus the median of the depth below it.
// The innermost depth keeps its whole median. A depth that measured faster
// than its child (timing noise on a thin layer) is clamped to zero.
func selfTimes(depthMedians []time.Duration) []time.Duration {
	out := make([]time.Duration, len(depthMedians))
	for i, m := range depthMedians {
		self := m
		if i+1 < len(depthMedians) {
			self = m - depthMedians[i+1]
		}
		if self < 0 {
			self = 0
		}
		out[i] = self
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
