package dynppr_test

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dynppr"
)

// deleteHeavyStream builds a deterministic stream where half of every batch
// deletes edges inserted so far — the workload that grows tombstone-shaped
// delta segments fastest.
func deleteHeavyStream(universe []dynppr.Edge, seed int64, batches, batchSize int) []dynppr.Batch {
	rng := rand.New(rand.NewSource(seed))
	var present []dynppr.Edge
	out := make([]dynppr.Batch, 0, batches)
	for b := 0; b < batches; b++ {
		batch := make(dynppr.Batch, 0, batchSize)
		for i := 0; i < batchSize; i++ {
			if len(present) > 0 && rng.Intn(2) == 0 {
				j := rng.Intn(len(present))
				e := present[j]
				present = append(present[:j], present[j+1:]...)
				batch = append(batch, dynppr.Update{U: e.U, V: e.V, Op: dynppr.Delete})
			} else {
				e := universe[rng.Intn(len(universe))]
				batch = append(batch, dynppr.Update{U: e.U, V: e.V, Op: dynppr.Insert})
				present = append(present, e)
			}
		}
		out = append(out, batch)
	}
	return out
}

// slidingWindowStream models the paper's sliding-window graph: every insert
// past the window capacity evicts the oldest live edge, so the graph churns
// at a steady size and every vertex's adjacency is rewritten over time.
func slidingWindowStream(universe, initial []dynppr.Edge, window, batches, batchSize int) []dynppr.Batch {
	live := append([]dynppr.Edge(nil), initial...)
	idx := 0
	out := make([]dynppr.Batch, 0, batches)
	for b := 0; b < batches; b++ {
		batch := make(dynppr.Batch, 0, 2*batchSize)
		for i := 0; i < batchSize; i++ {
			e := universe[idx%len(universe)]
			idx++
			batch = append(batch, dynppr.Update{U: e.U, V: e.V, Op: dynppr.Insert})
			live = append(live, e)
			if len(live) > window {
				old := live[0]
				live = live[1:]
				batch = append(batch, dynppr.Update{U: old.U, V: old.V, Op: dynppr.Delete})
			}
		}
		out = append(out, batch)
	}
	return out
}

// TestCompactionDifferential is the storage engine's end-to-end bit-identity
// gate: two services replay the same stream and compact at different points.
// The compacting side is left to the graph's own threshold
// (Graph.CompactThreshold), which the stream crosses by itself several times,
// so background merges race the write pipeline. The reference side compacts
// with CompactNow after every batch, so it never reaches the threshold. After
// every batch their published estimates and Top-K rankings must agree to the
// bit, and at the end their checkpoints — estimates, residuals, snapshot
// epochs, and the compacted CSR image — must be byte-identical. The
// compacting service runs at PoolWorkers 1 and 4, the other at 4 and 1; the
// -race runs in CI double as the data-race check on the background compactor.
func TestCompactionDifferential(t *testing.T) {
	// Few vertices with long adjacency lists: each touched vertex copies its
	// whole list into a delta segment, so the deltas reach the 32768-entry
	// threshold within a few batches, and again after every merge.
	universe, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: dynppr.ModelErdosRenyi, Vertices: 1000, Edges: 60000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	initial := universe[:30000]
	sources := dynppr.GraphFromEdges(initial).TopDegreeVertices(3)

	const (
		batches   = 20
		batchSize = 300
	)
	scenarios := []struct {
		name   string
		stream []dynppr.Batch
	}{
		{"delete-heavy", deleteHeavyStream(universe, 99, batches, batchSize)},
		{"sliding-window", slidingWindowStream(universe, initial, len(initial), batches, batchSize)},
	}

	for _, par := range []int{1, 4} {
		for _, sc := range scenarios {
			sc := sc
			t.Run(sc.name+parSuffix(par), func(t *testing.T) {
				opts := dynppr.DefaultOptions()
				opts.Epsilon = 1e-5
				build := func(pool int, dir string) *dynppr.Service {
					so := dynppr.ServiceOptions{Options: opts, PoolWorkers: pool}
					svc, err := dynppr.NewPersistentService(
						dynppr.GraphFromEdges(initial), sources, so,
						dynppr.PersistOptions{Dir: dir, Sync: dynppr.SyncNone})
					if err != nil {
						t.Fatal(err)
					}
					return svc
				}
				dirOn, dirOff := t.TempDir(), t.TempDir()
				on := build(par, dirOn)
				defer on.Close()
				off := build(5-par, dirOff)
				defer off.Close()

				for b, batch := range sc.stream {
					rOn, err := on.ApplyBatch(batch)
					if err != nil {
						t.Fatal(err)
					}
					rOff, err := off.ApplyBatch(batch)
					if err != nil {
						t.Fatal(err)
					}
					if rOn.Applied != rOff.Applied {
						t.Fatalf("batch %d: applied %d vs %d", b, rOn.Applied, rOff.Applied)
					}
					if err := off.CompactNow(); err != nil {
						t.Fatal(err)
					}
					compareServiceState(t, on, off, sources, b)
				}
				// Every threshold crossing starts a merge: the installed ones
				// count as compactions, and at most one is still in flight.
				st := on.Stats().Storage
				crossings := st.Compactions
				if st.CompactionInFlight {
					crossings++
				}
				if crossings < 2 || crossings >= int64(len(sc.stream)) {
					t.Fatalf("compacting service crossed its threshold %d times over %d batches, want at least 2 and fewer than the reference's one per batch",
						crossings, len(sc.stream))
				}

				// Checkpointing compacts both graphs; with identical logical
				// state, identical adjacency order and identical per-source
				// floats the two files must match byte for byte.
				if _, err := on.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if _, err := off.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				fOn, err := os.ReadFile(filepath.Join(dirOn, "checkpoint"))
				if err != nil {
					t.Fatal(err)
				}
				fOff, err := os.ReadFile(filepath.Join(dirOff, "checkpoint"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(fOn, fOff) {
					t.Fatal("checkpoints diverged: compaction is not state-invisible")
				}
			})
		}
	}
}

func parSuffix(par int) string {
	if par == 1 {
		return "/par=1"
	}
	return "/par=4"
}

// compareServiceState asserts bit-identical published estimates and Top-K
// rankings across the two services for every tracked source.
func compareServiceState(t *testing.T, on, off *dynppr.Service, sources []dynppr.VertexID, batch int) {
	t.Helper()
	for _, src := range sources {
		eOn, err := on.Estimates(src)
		if err != nil {
			t.Fatal(err)
		}
		eOff, err := off.Estimates(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(eOn) != len(eOff) {
			t.Fatalf("batch %d source %d: vector lengths %d vs %d", batch, src, len(eOn), len(eOff))
		}
		for v := range eOn {
			if math.Float64bits(eOn[v]) != math.Float64bits(eOff[v]) {
				t.Fatalf("batch %d source %d vertex %d: %g vs %g (bit mismatch)",
					batch, src, v, eOn[v], eOff[v])
			}
		}
		tOn, err := on.TopK(src, 10)
		if err != nil {
			t.Fatal(err)
		}
		tOff, err := off.TopK(src, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(tOn) != len(tOff) {
			t.Fatalf("batch %d source %d: top-k lengths %d vs %d", batch, src, len(tOn), len(tOff))
		}
		for i := range tOn {
			if tOn[i].Vertex != tOff[i].Vertex ||
				math.Float64bits(tOn[i].Score) != math.Float64bits(tOff[i].Score) {
				t.Fatalf("batch %d source %d rank %d: (%d,%g) vs (%d,%g)",
					batch, src, i, tOn[i].Vertex, tOn[i].Score, tOff[i].Vertex, tOff[i].Score)
			}
		}
	}
}
