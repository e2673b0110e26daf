package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCountersBasics(t *testing.T) {
	var c Counters
	c.AddPushes(3)
	c.AddPropagations(10)
	c.AddAtomicAdds(10)
	c.AddEnqueues(2)
	c.AddDuplicateAttempts(1)
	c.AddRestoreOps(5)
	c.ObserveIteration(4)
	c.ObserveIteration(8)
	c.ObserveIteration(2)

	if c.Iterations != 3 || c.FrontierPeak != 8 {
		t.Fatalf("iters=%d peak=%d", c.Iterations, c.FrontierPeak)
	}
	if got := c.MeanFrontier(); got != 14.0/3.0 {
		t.Fatalf("MeanFrontier = %v", got)
	}
	if !strings.Contains(c.String(), "pushes=3") {
		t.Fatalf("String() = %q", c.String())
	}
	s := c.Snapshot()
	if s.Pushes != 3 || s.DuplicateAttempts != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	c.Reset()
	if c.Pushes != 0 || c.Propagations != 0 || c.RestoreOps != 0 || c.MeanFrontier() != 0 {
		t.Fatal("Reset did not zero counters")
	}
}

func TestCountersMerge(t *testing.T) {
	a := Counters{Pushes: 1, Propagations: 2, FrontierPeak: 5, Iterations: 1, FrontierTotal: 5}
	b := Counters{Pushes: 10, Propagations: 20, FrontierPeak: 3, Iterations: 2, FrontierTotal: 4, DuplicateAttempts: 7}
	a.Merge(&b)
	if a.Pushes != 11 || a.Propagations != 22 || a.FrontierPeak != 5 ||
		a.Iterations != 3 || a.FrontierTotal != 9 || a.DuplicateAttempts != 7 {
		t.Fatalf("merge result: %+v", a)
	}
}

func TestCountersConcurrent(t *testing.T) {
	var c Counters
	const workers = 8
	const per = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.AddPushes(1)
				c.AddAtomicAdds(2)
				c.ObserveIteration(i % 100)
			}
		}()
	}
	wg.Wait()
	if c.Pushes != workers*per || c.AtomicAdds != 2*workers*per {
		t.Fatalf("pushes=%d atomics=%d", c.Pushes, c.AtomicAdds)
	}
	if c.FrontierPeak != 99 {
		t.Fatalf("peak=%d, want 99", c.FrontierPeak)
	}
	if c.Iterations != workers*per {
		t.Fatalf("iterations=%d", c.Iterations)
	}
}

// TestCountersConcurrentMerge merges from several goroutines into one
// Counters while others add to it and read it; run under -race it proves
// Merge is safe as a concurrent flush, and the totals prove no add is lost.
func TestCountersConcurrentMerge(t *testing.T) {
	var c Counters
	const workers = 8
	const per = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Merge(&Counters{
					Pushes: 1, Propagations: 2, AtomicAdds: 3, Enqueues: 4,
					DuplicateAttempts: 5, Iterations: 6, FrontierTotal: 7,
					FrontierPeak: int64(w*per + i), RestoreOps: 8,
				})
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.AddPushes(1)
				c.ObserveIteration(1)
				_ = c.Snapshot()
			}
		}()
	}
	wg.Wait()
	const n = workers * per
	want := Counters{
		Pushes: 2 * n, Propagations: 2 * n, AtomicAdds: 3 * n, Enqueues: 4 * n,
		DuplicateAttempts: 5 * n, Iterations: 7 * n, FrontierTotal: 8 * n,
		FrontierPeak: n - 1, RestoreOps: 8 * n,
	}
	if got := c.Snapshot(); got != want {
		t.Fatalf("counters = %+v\nwant       %+v", got, want)
	}
}
