// Differential tests of the sparse hot paths: delta snapshot publication
// and the incrementally maintained Top-K index must be bit-identical to a
// full-recompute oracle — across delete-heavy and sliding-window workloads,
// PoolWorkers 1 and 4 (the subtests' "parallelism=": the pool is the only
// parallelism a Service has), and a checkpoint/recovery restart at the other
// pool size.
package dynppr_test

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"dynppr"
	"dynppr/internal/push"
)

// sameBits compares two float64 slices for exact bit-level equality.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sparseDeleteHeavyScenario is the delete-heavy workload at a size where
// batches touch a small fraction of the graph, so the delta publication path
// actually engages (the tiny differential scenarios always fall back to full
// copies by the density heuristic).
func sparseDeleteHeavyScenario(t *testing.T) (initial []dynppr.Edge, sources []dynppr.VertexID, stream []dynppr.Batch) {
	t.Helper()
	universe, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: dynppr.ModelBarabasiAlbert, Vertices: 2000, Edges: 12000, Seed: 71,
	})
	if err != nil {
		t.Fatal(err)
	}
	sources = dynppr.GraphFromEdges(universe).TopDegreeVertices(3)
	rng := rand.New(rand.NewSource(72))
	present := append([]dynppr.Edge(nil), universe...)
	for b := 0; b < 8; b++ {
		batch := make(dynppr.Batch, 0, 60)
		for i := 0; i < 60; i++ {
			if len(present) > 0 && rng.Intn(4) != 0 {
				idx := rng.Intn(len(present))
				e := present[idx]
				present = append(present[:idx], present[idx+1:]...)
				batch = append(batch, dynppr.Update{U: e.U, V: e.V, Op: dynppr.Delete})
			} else {
				e := universe[rng.Intn(len(universe))]
				batch = append(batch, dynppr.Update{U: e.U, V: e.V, Op: dynppr.Insert})
				present = append(present, e)
			}
		}
		stream = append(stream, batch)
	}
	return universe, sources, stream
}

// sparseSlidingWindowScenario slides a small window across a large edge
// stream: every batch is half inserts, half deletes.
func sparseSlidingWindowScenario(t *testing.T) (initial []dynppr.Edge, sources []dynppr.VertexID, stream []dynppr.Batch) {
	t.Helper()
	universe, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: dynppr.ModelRMAT, Vertices: 8000, Edges: 48000, Seed: 73,
	})
	if err != nil {
		t.Fatal(err)
	}
	window, initial := dynppr.NewSlidingWindow(dynppr.NewStream(universe, 74), 0.5)
	sources = dynppr.GraphFromEdges(initial).TopDegreeVertices(3)
	for len(stream) < 12 {
		b := window.Slide(30)
		if len(b) == 0 {
			break
		}
		stream = append(stream, b)
	}
	if len(stream) < 8 {
		t.Fatalf("expected a long slide sequence, got %d batches", len(stream))
	}
	return initial, sources, stream
}

// sparseOracles builds one full-recompute oracle Tracker per source: an
// independent sequential tracker over its own copy of the graph, fed the
// same batches. Its live estimate vector is what every published
// snapshot must match bit for bit.
func sparseOracles(t *testing.T, initial []dynppr.Edge, sources []dynppr.VertexID, epsilon float64) []*dynppr.Tracker {
	t.Helper()
	oracles := make([]*dynppr.Tracker, len(sources))
	for i, s := range sources {
		opts := dynppr.DefaultOptions()
		opts.Engine = dynppr.EngineSequential
		opts.Epsilon = epsilon
		tr, err := dynppr.NewTracker(dynppr.GraphFromEdges(initial), s, opts)
		if err != nil {
			t.Fatal(err)
		}
		oracles[i] = tr
	}
	return oracles
}

// compareServiceToOracles asserts that every source's published snapshot —
// estimates and Top-K at depths inside, at, and beyond the index capacity
// (the last two take the heap fallback) — is bit-identical to its oracle
// tracker.
func compareServiceToOracles(t *testing.T, svc *dynppr.Service, sources []dynppr.VertexID, oracles []*dynppr.Tracker, tag string) {
	const topKCap = push.DefaultTopKCap
	t.Helper()
	for i, s := range sources {
		want := oracles[i].Estimates()
		got, err := svc.Estimates(s)
		if err != nil {
			t.Fatalf("%s: source %d: %v", tag, s, err)
		}
		if !sameBits(got, want) {
			t.Fatalf("%s: source %d: published estimates diverge from full-recompute oracle", tag, s)
		}
		for _, k := range []int{1, topKCap / 2, topKCap, topKCap + 9, len(want)} {
			gotTop, err := svc.TopK(s, k)
			if err != nil {
				t.Fatalf("%s: source %d k=%d: %v", tag, s, k, err)
			}
			wantTop := fullSortTopK(want, k)
			if len(gotTop) != len(wantTop) {
				t.Fatalf("%s: source %d k=%d: %d entries, want %d", tag, s, k, len(gotTop), len(wantTop))
			}
			for j := range wantTop {
				if gotTop[j] != wantTop[j] {
					t.Fatalf("%s: source %d k=%d: top[%d] = %+v, want %+v",
						tag, s, k, j, gotTop[j], wantTop[j])
				}
			}
		}
	}
}

// requireDeltaPublishes asserts the delta publication path carried real
// traffic — otherwise the suite silently degrades to testing full copies.
func requireDeltaPublishes(t *testing.T, svc *dynppr.Service) {
	t.Helper()
	var full, delta uint64
	for _, ss := range svc.Stats().Sources {
		full += ss.FullPublishes
		delta += ss.DeltaPublishes
	}
	if delta == 0 {
		t.Fatalf("delta publication path never engaged (full=%d delta=%d)", full, delta)
	}
}

// topKRebuilds sums the tracked sources' full-scan Top-K index rebuilds.
func topKRebuilds(svc *dynppr.Service) uint64 {
	var n uint64
	for _, ss := range svc.Stats().Sources {
		n += ss.TopKRebuilds
	}
	return n
}

// requireStreamRebuilds asserts the Top-K index's rebuild path ran during
// the stream, not only at cold start (coldRebuilds), so the comparisons
// covered rebuilt indexes as well as incrementally maintained ones.
func requireStreamRebuilds(t *testing.T, svc *dynppr.Service, coldRebuilds uint64) {
	t.Helper()
	if n := topKRebuilds(svc); n <= coldRebuilds {
		t.Fatalf("Top-K index rebuilt %d times, all at cold start: the stream never took the rebuild path", n)
	}
}

// TestSparseServingDifferential replays the delete-heavy and sliding-window
// workloads through Services at PoolWorkers 1 and 4 and asserts, after every
// batch, that the delta-published snapshots and the incremental Top-K index
// are bit-identical to full-recompute oracles.
func TestSparseServingDifferential(t *testing.T) {
	const epsilon = 1e-4
	scenarios := []struct {
		name  string
		build func(*testing.T) ([]dynppr.Edge, []dynppr.VertexID, []dynppr.Batch)
	}{
		{"delete-heavy", sparseDeleteHeavyScenario},
		{"sliding-window", sparseSlidingWindowScenario},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			initial, sources, stream := sc.build(t)
			for _, pool := range []int{1, 4} {
				pool := pool
				t.Run(fmt.Sprintf("parallelism=%d", pool), func(t *testing.T) {
					opts := dynppr.DefaultOptions()
					opts.Epsilon = epsilon
					svc, err := dynppr.NewService(dynppr.GraphFromEdges(initial), sources, dynppr.ServiceOptions{
						Options: opts, PoolWorkers: pool,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer svc.Close()
					cold := topKRebuilds(svc)
					oracles := sparseOracles(t, initial, sources, epsilon)
					for b, batch := range stream {
						if _, err := svc.ApplyBatch(batch); err != nil {
							t.Fatal(err)
						}
						for _, tr := range oracles {
							tr.ApplyBatch(batch)
						}
						compareServiceToOracles(t, svc, sources, oracles, fmt.Sprintf("batch %d", b))
					}
					requireDeltaPublishes(t, svc)
					requireStreamRebuilds(t, svc, cold)
				})
			}
		})
	}
}

// TestSparseServingAcrossRecovery checks the restart story: a persistent
// service is checkpointed mid-stream, mutated further, closed, and
// recovered — the recovered service's snapshots and Top-K must still be
// bit-identical to the never-crashed oracle, before and after post-recovery
// writes, and its first publications must be full copies (a restored state
// has no delta history to trust).
func TestSparseServingAcrossRecovery(t *testing.T) {
	const epsilon = 1e-4
	initial, sources, stream := sparseDeleteHeavyScenario(t)
	for _, pool := range []int{1, 4} {
		pool := pool
		t.Run(fmt.Sprintf("parallelism=%d", pool), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "data")
			opts := dynppr.DefaultOptions()
			opts.Epsilon = epsilon
			so := dynppr.ServiceOptions{Options: opts, PoolWorkers: pool}
			recSo := dynppr.ServiceOptions{Options: opts, PoolWorkers: 5 - pool}
			po := dynppr.PersistOptions{Dir: dir, Sync: dynppr.SyncNone}

			svc, err := dynppr.NewPersistentService(dynppr.GraphFromEdges(initial), sources, so, po)
			if err != nil {
				t.Fatal(err)
			}
			cold := topKRebuilds(svc)
			oracles := sparseOracles(t, initial, sources, epsilon)

			half := len(stream) / 2
			for _, batch := range stream[:half] {
				if _, err := svc.ApplyBatch(batch); err != nil {
					t.Fatal(err)
				}
				for _, tr := range oracles {
					tr.ApplyBatch(batch)
				}
			}
			if _, err := svc.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for _, batch := range stream[half:] {
				if _, err := svc.ApplyBatch(batch); err != nil {
					t.Fatal(err)
				}
				for _, tr := range oracles {
					tr.ApplyBatch(batch)
				}
			}
			compareServiceToOracles(t, svc, sources, oracles, "pre-restart")
			requireDeltaPublishes(t, svc)
			requireStreamRebuilds(t, svc, cold)
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}

			rec, err := dynppr.NewServiceFromRecovery(recSo, po)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			compareServiceToOracles(t, rec, sources, oracles, "post-restart")
			for _, ss := range rec.Stats().Sources {
				if ss.FullPublishes == 0 {
					t.Fatalf("recovered source %d reseeded without a full publish", ss.Source)
				}
			}

			// The recovered service keeps absorbing writes on the sparse path.
			extra := stream[len(stream)-1]
			if _, err := rec.ApplyBatch(extra); err != nil {
				t.Fatal(err)
			}
			for _, tr := range oracles {
				tr.ApplyBatch(extra)
			}
			compareServiceToOracles(t, rec, sources, oracles, "post-restart-write")
		})
	}
}
