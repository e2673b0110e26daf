package fp

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestAtomicAddFloat64Sequential(t *testing.T) {
	cell := 1.5
	before := AtomicAddFloat64(&cell, 2.25)
	if before != 1.5 {
		t.Fatalf("before = %v, want 1.5", before)
	}
	if got := LoadFloat64(&cell); got != 3.75 {
		t.Fatalf("value = %v, want 3.75", got)
	}
}

func TestAtomicAddFloat64Concurrent(t *testing.T) {
	const (
		goroutines = 8
		perG       = 10000
		delta      = 0.5
	)
	var cell float64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				AtomicAddFloat64(&cell, delta)
			}
		}()
	}
	wg.Wait()
	want := float64(goroutines*perG) * delta
	if got := LoadFloat64(&cell); got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

// Before-values must form a permutation of partial sums: each concurrent
// adder observes a distinct linearization point, which is the property local
// duplicate detection relies on (exactly one adder sees the crossing of the
// threshold).
func TestAtomicAddBeforeValuesDistinct(t *testing.T) {
	const n = 2000
	var cell float64
	results := make([]float64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = AtomicAddFloat64(&cell, 1)
		}(i)
	}
	wg.Wait()
	seen := make(map[float64]bool, n)
	for _, r := range results {
		if seen[r] {
			t.Fatalf("duplicate before-value %v", r)
		}
		seen[r] = true
	}
	for i := 0; i < n; i++ {
		if !seen[float64(i)] {
			t.Fatalf("missing before-value %d", i)
		}
	}
}

func TestSwapFloat64(t *testing.T) {
	cell := 7.0
	if old := SwapFloat64(&cell, -2); old != 7 {
		t.Fatalf("old = %v, want 7", old)
	}
	if got := LoadFloat64(&cell); got != -2 {
		t.Fatalf("value = %v, want -2", got)
	}
}

// Property: plain indexing and the atomics observe the same storage.
func TestVectorPlainAtomicAgree(t *testing.T) {
	f := func(vals []float64) bool {
		v := make([]float64, len(vals))
		for i, x := range vals {
			if math.IsNaN(x) {
				x = 0
			}
			v[i] = x
			if LoadFloat64(&v[i]) != x {
				return false
			}
			SwapFloat64(&v[i], x*2)
			if v[i] != x*2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: AtomicAdd is equivalent to sequential addition when applied from
// one goroutine in sequence.
func TestAtomicAddMatchesSequentialSum(t *testing.T) {
	f := func(deltas []float64) bool {
		var cell float64
		var want float64
		for _, d := range deltas {
			if math.IsNaN(d) || math.IsInf(d, 0) {
				d = 1
			}
			got := AtomicAddFloat64(&cell, d)
			if got != want {
				return false
			}
			want += d
		}
		return LoadFloat64(&cell) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
