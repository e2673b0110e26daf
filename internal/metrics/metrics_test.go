package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersBasics(t *testing.T) {
	var c Counters
	c.AddPushes(3)
	c.AddPropagations(10)
	c.AddAtomicAdds(10)
	c.AddEnqueues(2)
	c.AddDuplicateAttempts(1)
	c.AddRestoreOps(5)
	c.AddRandomAccesses(10)
	c.ObserveIteration(4)
	c.ObserveIteration(8)
	c.ObserveIteration(2)

	if c.TotalOperations() != 18 {
		t.Fatalf("TotalOperations = %d, want 18", c.TotalOperations())
	}
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
	if c.TotalOperations() != 0 || c.MeanFrontier() != 0 {
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

func TestLatencyStats(t *testing.T) {
	var l LatencyStats
	if l.Mean() != 0 || l.Percentile(50) != 0 || l.Throughput(100) != 0 || l.Count() != 0 {
		t.Fatal("empty stats should be zero")
	}
	for _, ms := range []int{10, 20, 30, 40, 50} {
		l.Observe(time.Duration(ms) * time.Millisecond)
	}
	if l.Count() != 5 {
		t.Fatalf("Count = %d", l.Count())
	}
	if l.Mean() != 30*time.Millisecond {
		t.Fatalf("Mean = %v", l.Mean())
	}
	if l.Percentile(0) != 10*time.Millisecond || l.Max() != 50*time.Millisecond {
		t.Fatalf("p0=%v max=%v", l.Percentile(0), l.Max())
	}
	if l.Percentile(50) != 30*time.Millisecond {
		t.Fatalf("p50=%v", l.Percentile(50))
	}
	if l.Percentile(200) != 50*time.Millisecond {
		t.Fatalf("p200 should clamp to max, got %v", l.Percentile(200))
	}
	// 1500 items over 150ms => 10000 items/sec.
	if got := l.Throughput(1500); got < 9999 || got > 10001 {
		t.Fatalf("Throughput = %v", got)
	}
}

// TestLatencyStatsBounded pins the overload fix: memory stays bounded by
// the window while Count, Mean and Max remain exact over every sample, and
// percentiles track the most recent window.
func TestLatencyStatsBounded(t *testing.T) {
	l := NewLatencyStats(64)
	const total = 10_000
	for i := 1; i <= total; i++ {
		l.Observe(time.Duration(i) * time.Microsecond)
	}
	if len(l.samples) != 64 {
		t.Fatalf("window holds %d samples, want 64", len(l.samples))
	}
	if l.Count() != total {
		t.Fatalf("Count = %d, want %d", l.Count(), total)
	}
	wantSum := time.Duration(total) * time.Duration(total+1) / 2 * time.Microsecond
	if want := wantSum / total; l.Mean() != want {
		t.Fatalf("Mean = %v, want %v", l.Mean(), want)
	}
	if l.Max() != total*time.Microsecond {
		t.Fatalf("Max = %v", l.Max())
	}
	// The percentile window covers the most recent 64 samples only.
	if p0 := l.Percentile(0); p0 != (total-63)*time.Microsecond {
		t.Fatalf("windowed min = %v", p0)
	}
	if p100 := l.Percentile(100); p100 != total*time.Microsecond {
		t.Fatalf("windowed max = %v", p100)
	}
	// One sort answers what the per-call sorts answer: the window holds
	// total-63 .. total µs, so rank ⌈p/100·64⌉ is known for every p.
	ps := []float64{-1, 0, 1, 50, 95, 99, 100, 101}
	ranks := []int{1, 1, 1, 32, 61, 64, 64, 64}
	for i, got := range l.Percentiles(ps...) {
		want := time.Duration(total-64+ranks[i]) * time.Microsecond
		if got != want || l.Percentile(ps[i]) != want {
			t.Fatalf("p%g: Percentiles %v, Percentile %v, want %v", ps[i], got, l.Percentile(ps[i]), want)
		}
	}
	if got := new(LatencyStats).Percentiles(50, 99); len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Fatalf("empty window: %v, want two zeros", got)
	}
}

func TestLatencyStatsAddAllExactAggregates(t *testing.T) {
	a := NewLatencyStats(8)
	b := NewLatencyStats(8)
	var wantSum time.Duration
	for i := 1; i <= 100; i++ {
		a.Observe(time.Duration(i) * time.Millisecond)
		wantSum += time.Duration(i) * time.Millisecond
	}
	for i := 101; i <= 120; i++ {
		b.Observe(time.Duration(i) * time.Millisecond)
		wantSum += time.Duration(i) * time.Millisecond
	}
	a.AddAll(b)
	if a.Count() != 120 {
		t.Fatalf("merged Count = %d", a.Count())
	}
	if a.Sum() != wantSum {
		t.Fatalf("merged Sum = %v, want %v", a.Sum(), wantSum)
	}
	if a.Max() != 120*time.Millisecond {
		t.Fatalf("merged Max = %v", a.Max())
	}
	if a.Mean() != wantSum/120 {
		t.Fatalf("merged Mean = %v", a.Mean())
	}
	// The merged window ends with b's most recent samples.
	if a.Percentile(100) != 120*time.Millisecond {
		t.Fatalf("merged windowed max = %v", a.Percentile(100))
	}
}
