package metrics

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketLayout(t *testing.T) {
	if NumBuckets > 49 {
		t.Fatalf("NumBuckets = %d, want at most 48 finite buckets plus +Inf", NumBuckets)
	}
	if UpperBound(0) != 8192 || UpperBound(NumBuckets-2) != 1<<36 || UpperBound(NumBuckets-1) != math.MaxInt64 {
		t.Fatalf("bounds: first %v, last finite %v, +Inf %v",
			UpperBound(0), UpperBound(NumBuckets-2), UpperBound(NumBuckets-1))
	}
	for i := 0; i < NumBuckets-1; i++ {
		ub := UpperBound(i)
		if i > 0 && ub <= UpperBound(i-1) {
			t.Fatalf("bound %d = %v does not increase", i, ub)
		}
		// le semantics: the bound itself belongs to its bucket, one more
		// nanosecond to the next.
		if bucketOf(ub) != i || bucketOf(ub+1) != i+1 {
			t.Fatalf("bound %d = %v: bucketOf(ub) = %d, bucketOf(ub+1) = %d",
				i, ub, bucketOf(ub), bucketOf(ub+1))
		}
	}
	if bucketOf(0) != 0 || bucketOf(math.MaxInt64) != NumBuckets-1 {
		t.Fatalf("extremes: %d, %d", bucketOf(0), bucketOf(math.MaxInt64))
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 || empty.Count() != 0 {
		t.Fatal("an empty histogram must read zero")
	}
}

// logNormal draws n seeded latencies around 160 µs, wide enough to cover
// bucket 0 and a dozen octaves above it.
func logNormal(seed int64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(math.Exp(12 + 1.5*rng.NormFloat64()))
	}
	return out
}

func TestHistogramQuantileInsideBucket(t *testing.T) {
	xs := logNormal(7, 50_000)
	var h Histogram
	var sum time.Duration
	for _, x := range xs {
		h.Observe(x)
		sum += x
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	if h.Count() != int64(len(xs)) || h.Sum() != sum || h.Max() != sorted[len(sorted)-1] {
		t.Fatalf("count %d sum %v max %v, want %d %v %v",
			h.Count(), h.Sum(), h.Max(), len(xs), sum, sorted[len(sorted)-1])
	}
	if h.Mean() != sum/time.Duration(len(xs)) {
		t.Fatalf("mean %v", h.Mean())
	}
	for _, q := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1} {
		exact := sorted[max(int(math.Ceil(q*float64(len(sorted))))-1, 0)]
		got := h.Quantile(q)
		if bucketOf(got) != bucketOf(exact) {
			t.Errorf("q=%g: estimate %v in bucket %d, exact %v in bucket %d",
				q, got, bucketOf(got), exact, bucketOf(exact))
		}
	}
	if h.Quantile(1) != h.Max() {
		t.Errorf("q=1: %v, want the max %v", h.Quantile(1), h.Max())
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	const workers, per = 8, 10_000
	var h, serial Histogram
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		for i := 0; i < per; i++ {
			serial.Observe(time.Duration(w*per+i) * time.Microsecond)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*per+i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	const n = workers * per
	if h.Count() != n || h.Sum() != n*(n-1)/2*time.Microsecond || h.Max() != (n-1)*time.Microsecond {
		t.Fatalf("count %d sum %v max %v", h.Count(), h.Sum(), h.Max())
	}
	if h.Counts() != serial.Counts() {
		t.Fatalf("bucket counts differ from a serial run:\n%v\n%v", h.Counts(), serial.Counts())
	}
}

func TestHistogramMergeEqualsUnion(t *testing.T) {
	a, b := logNormal(1, 3000), logNormal(2, 500)
	b = append(b, 90*time.Second) // the +Inf bucket merges too
	var ha, hb, union Histogram
	for _, x := range a {
		ha.Observe(x)
		union.Observe(x)
	}
	for _, x := range b {
		hb.Observe(x)
		union.Observe(x)
	}
	ha.Merge(&hb)
	if ha.Counts() != union.Counts() || ha.Sum() != union.Sum() || ha.Max() != union.Max() {
		t.Fatalf("merge differs from the union: counts %v vs %v, sum %v vs %v, max %v vs %v",
			ha.Counts(), union.Counts(), ha.Sum(), union.Sum(), ha.Max(), union.Max())
	}
	for _, q := range []float64{0.5, 0.99, 1} {
		if ha.Quantile(q) != union.Quantile(q) {
			t.Fatalf("q=%g: merged %v, union %v", q, ha.Quantile(q), union.Quantile(q))
		}
	}
}

func TestHistogramObserveAllocs(t *testing.T) {
	var h Histogram
	d := time.Duration(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		d += 7919 * time.Nanosecond
		h.Observe(d)
	}); allocs != 0 {
		t.Fatalf("Observe allocates %v times per call", allocs)
	}
}
