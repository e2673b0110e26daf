package dynppr_test

// The Tracker's differentials: the push contract at the public API, through
// the Tracker's own batch procedure. Every push engine's kernel is checked
// against power iteration by the engine table in internal/push; these tests
// replay the same kinds of stream through NewTracker and ApplyBatch.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dynppr"
	"dynppr/internal/graph"
	"dynppr/internal/power"
)

// engineConfig names one engine under differential test.
type engineConfig struct {
	name   string
	engine dynppr.EngineKind
}

// allEngineConfigs lists every engine a Tracker offers, the sequential
// reference first.
func allEngineConfigs() []engineConfig {
	return []engineConfig{
		{"sequential", dynppr.EngineSequential},
		{"parallel-opt", dynppr.EngineParallel},
		{"deterministic", dynppr.EngineDeterministic},
	}
}

// randomUpdateStream builds a deterministic mixed insert/delete stream: each
// batch draws inserts from the edge universe (duplicates possible) and
// deletes from the edges inserted so far (misses possible), so the engines
// also see the no-op paths.
func randomUpdateStream(universe []dynppr.Edge, seed int64, batches, batchSize int) []dynppr.Batch {
	rng := rand.New(rand.NewSource(seed))
	var present []dynppr.Edge
	out := make([]dynppr.Batch, 0, batches)
	for range batches {
		batch := make(dynppr.Batch, 0, batchSize)
		for range batchSize {
			if len(present) > 0 && rng.Intn(3) == 0 {
				e := present[rng.Intn(len(present))]
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

// newTrackers builds one tracker per engine and parallelism over the same
// initial edge list, named after both.
func newTrackers(t *testing.T, initial []dynppr.Edge, source dynppr.VertexID, epsilon float64, engines []engineConfig, parallelisms []int) ([]string, []*dynppr.Tracker) {
	t.Helper()
	var names []string
	var trackers []*dynppr.Tracker
	for _, c := range engines {
		for _, par := range parallelisms {
			opts := dynppr.DefaultOptions()
			opts.Engine = c.engine
			opts.Epsilon = epsilon
			opts.Parallelism = par
			tr, err := dynppr.NewTracker(dynppr.GraphFromEdges(initial), source, opts)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			names = append(names, fmt.Sprintf("%s/parallelism-%d", c.name, par))
			trackers = append(trackers, tr)
		}
	}
	return names, trackers
}

// replayAndCompare replays the stream on every tracker. After every batch
// each tracker must be converged, hold as many edges as the first and agree
// with the first within 2ε — or, with bits set, carry exactly its estimate
// and residual bits. At the end every tracker must be within ε of the exact
// power-iteration oracle over a consistent graph.
func replayAndCompare(t *testing.T, names []string, trackers []*dynppr.Tracker, stream []dynppr.Batch, epsilon float64, bits bool) {
	t.Helper()
	ref := trackers[0]
	for b, batch := range stream {
		for i, tr := range trackers {
			if res := tr.ApplyBatch(batch); !tr.Converged() {
				t.Fatalf("%s: not converged after batch %d (%+v)", names[i], b, res)
			}
		}
		refEst := ref.Estimates()
		for i, tr := range trackers[1:] {
			name := names[i+1]
			if tr.Graph().NumEdges() != ref.Graph().NumEdges() {
				t.Fatalf("%s: edge count diverged after batch %d", name, b)
			}
			est := tr.Estimates()
			if len(est) != len(refEst) {
				t.Fatalf("%s: vector length %d vs %d after batch %d", name, len(est), len(refEst), b)
			}
			for v := range est {
				if !bits {
					if d := math.Abs(est[v] - refEst[v]); d > 2*epsilon {
						t.Fatalf("%s: batch %d vertex %d differs from %s by %v", name, b, v, names[0], d)
					}
					continue
				}
				if math.Float64bits(est[v]) != math.Float64bits(refEst[v]) {
					t.Fatalf("%s: batch %d vertex %d: estimate bits %x differ from %s's %x",
						name, b, v, math.Float64bits(est[v]), names[0], math.Float64bits(refEst[v]))
				}
				rv, refv := tr.Residual(dynppr.VertexID(v)), ref.Residual(dynppr.VertexID(v))
				if math.Float64bits(rv) != math.Float64bits(refv) {
					t.Fatalf("%s: batch %d vertex %d: residual bits differ from %s's", name, b, v, names[0])
				}
			}
		}
	}
	oracle, err := power.ReverseGraph(ref.Graph(), ref.Source(), power.Options{
		Alpha: 0.15, Tolerance: 1e-13, MaxIterations: 20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range trackers {
		if worst := power.MaxAbsDiff(tr.Estimates(), oracle); worst > epsilon {
			t.Fatalf("%s: max error vs oracle %v exceeds ε %v", names[i], worst, epsilon)
		}
		if err := tr.Graph().CheckConsistency(); err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
	}
}

// TestDifferentialEngines replays identical random insert/delete streams on
// every engine over ER, BA and RMAT graphs (fixed seeds).
func TestDifferentialEngines(t *testing.T) {
	const epsilon = 1e-5
	models := []struct {
		name  string
		model dynppr.GraphModel
		seed  int64
	}{
		{"erdos-renyi", dynppr.ModelErdosRenyi, 17},
		{"barabasi-albert", dynppr.ModelBarabasiAlbert, 23},
		{"rmat", dynppr.ModelRMAT, 31},
	}
	for _, m := range models {
		t.Run(m.name, func(t *testing.T) {
			universe, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
				Model: m.model, Vertices: 120, Edges: 700, Seed: m.seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			initial := universe[:400]
			source := dynppr.GraphFromEdges(initial).TopDegreeVertices(1)[0]
			names, trackers := newTrackers(t, initial, source, epsilon, allEngineConfigs(), []int{2})
			replayAndCompare(t, names, trackers, randomUpdateStream(universe, m.seed+1000, 4, 60), epsilon, false)
		})
	}
}

// deleteHeavyScenario builds the delete-heavy workload: the tracker starts
// on the full edge universe and a 3-deletes-to-1-insert stream tears most of
// it down, with some deletes hitting edges already gone (the no-op path).
func deleteHeavyScenario(t *testing.T) (initial []dynppr.Edge, source dynppr.VertexID, stream []dynppr.Batch) {
	t.Helper()
	universe, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: dynppr.ModelBarabasiAlbert, Vertices: 120, Edges: 700, Seed: 53,
	})
	if err != nil {
		t.Fatal(err)
	}
	source = dynppr.GraphFromEdges(universe).TopDegreeVertices(1)[0]
	rng := rand.New(rand.NewSource(54))
	present := append([]dynppr.Edge(nil), universe...)
	for range 6 {
		batch := make(dynppr.Batch, 0, 80)
		for range 80 {
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
	return universe, source, stream
}

// slidingWindowScenario builds the paper's sliding-window workload with a
// window much smaller than the graph, so every slide is half inserts and
// half deletes and the entire edge set turns over during the run.
func slidingWindowScenario(t *testing.T) (initial []dynppr.Edge, source dynppr.VertexID, batches []dynppr.Batch) {
	t.Helper()
	universe, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: dynppr.ModelRMAT, Vertices: 120, Edges: 900, Seed: 61,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A 10% window over a 900-edge stream: the window (~90 edges) is far
	// smaller than the graph it slides across.
	window, initial := dynppr.NewSlidingWindow(dynppr.NewStream(universe, 62), 0.1)
	if window.Size() >= len(universe)/2 {
		t.Fatalf("window %d is not smaller than the graph (%d edges)", window.Size(), len(universe))
	}
	source = dynppr.GraphFromEdges(initial).TopDegreeVertices(1)[0]
	for b := window.Slide(45); len(b) > 0; b = window.Slide(45) {
		batches = append(batches, b)
	}
	if len(batches) < 10 {
		t.Fatalf("expected a long slide sequence, got %d batches", len(batches))
	}
	return initial, source, batches
}

// TestDifferentialDeleteHeavy replays the delete-heavy stream so the
// engines' deletion invariant-restoration path, not just the insert path,
// carries the differential comparison.
func TestDifferentialDeleteHeavy(t *testing.T) {
	const epsilon = 1e-5
	initial, source, stream := deleteHeavyScenario(t)
	names, trackers := newTrackers(t, initial, source, epsilon, allEngineConfigs(), []int{2})
	replayAndCompare(t, names, trackers, stream, epsilon, false)
	if got := trackers[0].Graph().NumEdges(); got >= len(initial)/2 {
		t.Fatalf("stream was not delete-heavy: %d of %d edges remain", got, len(initial))
	}
}

// TestDifferentialSlidingWindow replays the sliding-window workload across
// every engine.
func TestDifferentialSlidingWindow(t *testing.T) {
	const epsilon = 1e-5
	initial, source, batches := slidingWindowScenario(t)
	names, trackers := newTrackers(t, initial, source, epsilon, allEngineConfigs(), []int{2})
	replayAndCompare(t, names, trackers, batches, epsilon, false)
}

// TestDifferentialDeterministicBitIdentical is the determinism contract of
// EngineDeterministic at the public API: across the delete-heavy and
// sliding-window scenarios, trackers running at parallelism 1, 2 and 8
// produce estimate and residual vectors with exactly the same float64 bits
// after every batch — the parallelism-1 run is the engine's own sequential
// execution, so the parallel runs are bit-identical to the sequential one.
// The suite runs under -race in CI, so it also stresses the engine's
// barrier discipline.
func TestDifferentialDeterministicBitIdentical(t *testing.T) {
	const epsilon = 1e-5
	scenarios := []struct {
		name  string
		build func(*testing.T) ([]dynppr.Edge, dynppr.VertexID, []dynppr.Batch)
	}{
		{"delete-heavy", deleteHeavyScenario},
		{"sliding-window", slidingWindowScenario},
	}
	deterministic := []engineConfig{{"deterministic", dynppr.EngineDeterministic}}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			initial, source, stream := sc.build(t)
			names, trackers := newTrackers(t, initial, source, epsilon, deterministic, []int{1, 2, 8})
			replayAndCompare(t, names, trackers, stream, epsilon, true)
		})
	}
}

// TestDifferentialInvariant checks the structural property the scheme rests
// on: after arbitrary mixed batches grown from an empty graph, every engine
// stays within ε of the exact vector.
func TestDifferentialInvariant(t *testing.T) {
	universe, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: dynppr.ModelRMAT, Vertices: 100, Edges: 500, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := randomUpdateStream(universe, 77, 3, 50)
	for _, c := range allEngineConfigs() {
		opts := dynppr.DefaultOptions()
		opts.Engine = c.engine
		opts.Epsilon = 1e-4
		opts.Parallelism = 2
		tr, err := dynppr.NewTracker(graph.FromEdges(nil), 0, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, b := range stream {
			tr.ApplyBatch(b)
		}
		maxErr, err := tr.ExactError()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if maxErr > opts.Epsilon {
			t.Fatalf("%s: exact error %v exceeds ε", c.name, maxErr)
		}
	}
}

// TestSequentialCountersPinned pins every work counter of a sequential
// Tracker over a fixed seeded stream: a cold start, then mixed
// insert/delete batches and single updates. The values follow the per-push
// counting semantics — every push is one iteration over a frontier of one —
// which the kernel's once-per-phase flush must keep field for field.
func TestSequentialCountersPinned(t *testing.T) {
	universe, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: dynppr.ModelRMAT, Vertices: 2000, Edges: 16000, Seed: 35,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := dynppr.GraphFromEdges(universe[:12000])
	opts := dynppr.DefaultOptions()
	opts.Engine = dynppr.EngineSequential
	tr, err := dynppr.NewTracker(g, g.TopDegreeVertices(1)[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range randomUpdateStream(universe, 36, 12, 200) {
		if i%4 == 3 {
			for _, u := range b[:20] {
				tr.ApplyUpdate(u)
			}
			continue
		}
		tr.ApplyBatch(b)
	}
	got := tr.Counters()
	want := dynppr.Counters{
		Pushes: 459088, Propagations: 3951899, Enqueues: 458635,
		Iterations: 459088, FrontierPeak: 1, FrontierTotal: 459088,
		RestoreOps: 654, RandomAccesses: 3951899,
	}
	if got != want {
		t.Fatalf("counters = %+v\nwant       %+v", got, want)
	}
}
