package fp

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestAtomicAddFloat64Sequential(t *testing.T) {
	cell := math.Float64bits(1.5)
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
	var cell uint64
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
	var cell uint64
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
	cell := math.Float64bits(7)
	if old := SwapFloat64(&cell, -2); old != 7 {
		t.Fatalf("old = %v, want 7", old)
	}
	if got := LoadFloat64(&cell); got != -2 {
		t.Fatalf("value = %v, want -2", got)
	}
}

func TestFloat64VectorBasics(t *testing.T) {
	v := NewFloat64Vector(4)
	if v.Len() != 4 {
		t.Fatalf("Len = %d, want 4", v.Len())
	}
	v.Set(2, 3.5)
	if got := v.Get(2); got != 3.5 {
		t.Fatalf("Get(2) = %v", got)
	}
	before := v.AtomicAdd(2, 1.5)
	if before != 3.5 || v.Get(2) != 5 {
		t.Fatalf("AtomicAdd: before=%v value=%v", before, v.Get(2))
	}
	before = v.AtomicAdd(2, -5)
	if before != 5 || v.AtomicGet(2) != 0 {
		t.Fatalf("AtomicAdd: before=%v value=%v", before, v.AtomicGet(2))
	}
	v.Set(0, 9)
	if old := v.AtomicSwap(0, 1); old != 9 || v.Get(0) != 1 {
		t.Fatalf("AtomicSwap: old=%v value=%v", old, v.Get(0))
	}
}

func TestFloat64VectorResizePreserves(t *testing.T) {
	v := NewFloat64Vector(2)
	v.Set(0, 1)
	v.Set(1, 2)
	v.Resize(5)
	if v.Len() != 5 {
		t.Fatalf("Len = %d, want 5", v.Len())
	}
	if v.Get(0) != 1 || v.Get(1) != 2 || v.Get(4) != 0 {
		t.Fatalf("resize lost values: %v", v.Snapshot())
	}
	v.Resize(3) // shrink is a no-op
	if v.Len() != 5 {
		t.Fatalf("shrink should be a no-op, Len = %d", v.Len())
	}
}

func TestFloat64VectorCopyFrom(t *testing.T) {
	v := NewFloat64Vector(3)
	v.Set(0, -1)
	v.Set(1, 2)
	v.Set(2, -3)
	w := v.Snapshot()
	w[0] = 100
	if v.Get(0) != -1 || w[2] != -3 {
		t.Fatal("Snapshot is not a deep copy")
	}
	if got, want := v.MaxAbs(), 3.0; got != want {
		t.Fatalf("MaxAbs = %v, want %v", got, want)
	}
}

// Property: the plain and atomic accessors observe the same storage.
func TestVectorPlainAtomicAgree(t *testing.T) {
	f := func(vals []float64) bool {
		v := NewFloat64Vector(len(vals))
		for i, x := range vals {
			if math.IsNaN(x) {
				x = 0
			}
			v.Set(i, x)
			if v.AtomicGet(i) != x {
				return false
			}
			v.AtomicSwap(i, x*2)
			if v.Get(i) != x*2 {
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
		var cell uint64
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
