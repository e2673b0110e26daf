package fp

import (
	"sync/atomic"
	"testing"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 16} {
		for _, n := range []int{0, 1, 2, 7, 100, 1001} {
			visited := make([]int64, n)
			For(n, workers, func(i int) {
				atomic.AddInt64(&visited[i], 1)
			})
			for i, v := range visited {
				if v != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, v)
				}
			}
		}
	}
}

func TestForDynamicCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		for _, grain := range []int{0, 1, 16, 1000} {
			const n = 777
			visited := make([]int64, n)
			ForDynamic(n, workers, grain, func(i int) {
				atomic.AddInt64(&visited[i], 1)
			})
			for i, v := range visited {
				if v != 1 {
					t.Fatalf("workers=%d grain=%d: index %d visited %d times", workers, grain, i, v)
				}
			}
		}
	}
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	For(0, 4, func(int) { called = true })
	For(-5, 4, func(int) { called = true })
	ForDynamic(0, 4, 8, func(int) { called = true })
	if called {
		t.Fatal("body must not be called for n <= 0")
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers must be >= 1")
	}
}
