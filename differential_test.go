package dynppr_test

import (
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
// reference first. The paper's ablation variants and the vertex-centric
// baseline are checked against the oracle in internal/push and internal/vc.
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
	for b := 0; b < batches; b++ {
		batch := make(dynppr.Batch, 0, batchSize)
		for i := 0; i < batchSize; i++ {
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

// TestDifferentialEngines replays identical random insert/delete streams on
// every engine over ER, BA and RMAT graphs (fixed seeds)
// and asserts that (a) all engines agree with the sequential reference
// within 2ε after every batch, and (b) every engine agrees with the exact
// power-iteration oracle within ε at the end.
func TestDifferentialEngines(t *testing.T) {
	const (
		epsilon   = 1e-5
		batches   = 4
		batchSize = 60
	)
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
		m := m
		t.Run(m.name, func(t *testing.T) {
			universe, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
				Model: m.model, Vertices: 120, Edges: 700, Seed: m.seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			initial := universe[:400]
			source := dynppr.GraphFromEdges(initial).TopDegreeVertices(1)[0]
			stream := randomUpdateStream(universe, m.seed+1000, batches, batchSize)

			configs := allEngineConfigs()
			trackers := make([]*dynppr.Tracker, len(configs))
			for i, c := range configs {
				opts := dynppr.DefaultOptions()
				opts.Engine = c.engine
				opts.Epsilon = epsilon
				opts.Parallelism = 2
				tr, err := dynppr.NewTracker(dynppr.GraphFromEdges(initial), source, opts)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				trackers[i] = tr
			}

			for b, batch := range stream {
				for i, tr := range trackers {
					res := tr.ApplyBatch(batch)
					if !tr.Converged() {
						t.Fatalf("%s: not converged after batch %d (%+v)", configs[i].name, b, res)
					}
				}
				// All engines processed the same updates, so their graphs
				// must match the reference exactly...
				ref := trackers[0]
				for i, tr := range trackers[1:] {
					if tr.Graph().NumEdges() != ref.Graph().NumEdges() {
						t.Fatalf("%s: edge count diverged after batch %d", configs[i+1].name, b)
					}
				}
				// ...and their estimates must agree within 2ε.
				refEst := ref.Estimates()
				for i, tr := range trackers[1:] {
					est := tr.Estimates()
					if len(est) != len(refEst) {
						t.Fatalf("%s: vector length %d vs %d after batch %d",
							configs[i+1].name, len(est), len(refEst), b)
					}
					for v := range est {
						if d := math.Abs(est[v] - refEst[v]); d > 2*epsilon {
							t.Fatalf("%s: batch %d vertex %d differs from sequential by %v",
								configs[i+1].name, b, v, d)
						}
					}
				}
			}

			// Final cross-check against the exact oracle.
			oracle, err := power.ReverseGraph(trackers[0].Graph(), source, power.Options{
				Alpha: 0.15, Tolerance: 1e-13, MaxIterations: 20_000,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, tr := range trackers {
				est := tr.Estimates()
				var worst float64
				for v := range est {
					if d := math.Abs(est[v] - oracle[v]); d > worst {
						worst = d
					}
				}
				if worst > epsilon {
					t.Fatalf("%s: max error vs oracle %v exceeds ε %v", configs[i].name, worst, epsilon)
				}
				if err := tr.Graph().CheckConsistency(); err != nil {
					t.Fatalf("%s: %v", configs[i].name, err)
				}
			}
		})
	}
}

// buildDifferentialTrackers builds one tracker per engine over the same
// initial edge list.
func buildDifferentialTrackers(t *testing.T, initial []dynppr.Edge, source dynppr.VertexID, epsilon float64) ([]engineConfig, []*dynppr.Tracker) {
	t.Helper()
	configs := allEngineConfigs()
	trackers := make([]*dynppr.Tracker, len(configs))
	for i, c := range configs {
		opts := dynppr.DefaultOptions()
		opts.Engine = c.engine
		opts.Epsilon = epsilon
		opts.Parallelism = 2
		tr, err := dynppr.NewTracker(dynppr.GraphFromEdges(initial), source, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		trackers[i] = tr
	}
	return configs, trackers
}

// replayAndCompare replays the stream on every tracker, asserting per batch
// that all engines stay within 2ε of the sequential reference, and finally
// that every engine is within ε of the exact power-iteration oracle.
func replayAndCompare(t *testing.T, configs []engineConfig, trackers []*dynppr.Tracker, stream []dynppr.Batch, epsilon float64) {
	t.Helper()
	for b, batch := range stream {
		for i, tr := range trackers {
			tr.ApplyBatch(batch)
			if !tr.Converged() {
				t.Fatalf("%s: not converged after batch %d", configs[i].name, b)
			}
		}
		refEst := trackers[0].Estimates()
		for i, tr := range trackers[1:] {
			est := tr.Estimates()
			if len(est) != len(refEst) {
				t.Fatalf("%s: vector length %d vs %d after batch %d",
					configs[i+1].name, len(est), len(refEst), b)
			}
			for v := range est {
				if d := math.Abs(est[v] - refEst[v]); d > 2*epsilon {
					t.Fatalf("%s: batch %d vertex %d differs from sequential by %v",
						configs[i+1].name, b, v, d)
				}
			}
		}
	}
	oracle, err := power.ReverseGraph(trackers[0].Graph(), trackers[0].Source(), power.Options{
		Alpha: 0.15, Tolerance: 1e-13, MaxIterations: 20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range trackers {
		var worst float64
		for v, est := range tr.Estimates() {
			if d := math.Abs(est - oracle[v]); d > worst {
				worst = d
			}
		}
		if worst > epsilon {
			t.Fatalf("%s: max error vs oracle %v exceeds ε %v", configs[i].name, worst, epsilon)
		}
		if err := tr.Graph().CheckConsistency(); err != nil {
			t.Fatalf("%s: %v", configs[i].name, err)
		}
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
	for b := 0; b < 6; b++ {
		batch := make(dynppr.Batch, 0, 80)
		for i := 0; i < 80; i++ {
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
	stream := dynppr.NewStream(universe, 62)
	// A 10% window over a 900-edge stream: the window (~90 edges) is far
	// smaller than the graph it slides across.
	window, initial := dynppr.NewSlidingWindow(stream, 0.1)
	if window.Size() >= len(universe)/2 {
		t.Fatalf("window %d is not smaller than the graph (%d edges)", window.Size(), len(universe))
	}
	source = dynppr.GraphFromEdges(initial).TopDegreeVertices(1)[0]
	for {
		b := window.Slide(45)
		if len(b) == 0 {
			break
		}
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
	configs, trackers := buildDifferentialTrackers(t, initial, source, epsilon)
	replayAndCompare(t, configs, trackers, stream, epsilon)

	if got := trackers[0].Graph().NumEdges(); got >= len(initial)/2 {
		t.Fatalf("stream was not delete-heavy: %d of %d edges remain", got, len(initial))
	}
}

// TestDifferentialSlidingWindow replays the sliding-window workload across
// every engine.
func TestDifferentialSlidingWindow(t *testing.T) {
	const epsilon = 1e-5
	initial, source, batches := slidingWindowScenario(t)
	configs, trackers := buildDifferentialTrackers(t, initial, source, epsilon)
	replayAndCompare(t, configs, trackers, batches, epsilon)
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
	parallelisms := []int{1, 2, 8}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			initial, source, stream := sc.build(t)
			trackers := make([]*dynppr.Tracker, len(parallelisms))
			for i, par := range parallelisms {
				opts := dynppr.DefaultOptions()
				opts.Engine = dynppr.EngineDeterministic
				opts.Epsilon = epsilon
				opts.Parallelism = par
				tr, err := dynppr.NewTracker(dynppr.GraphFromEdges(initial), source, opts)
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				trackers[i] = tr
			}
			for b, batch := range stream {
				for i, tr := range trackers {
					tr.ApplyBatch(batch)
					if !tr.Converged() {
						t.Fatalf("parallelism %d: not converged after batch %d", parallelisms[i], b)
					}
				}
				ref := trackers[0]
				refEst := ref.Estimates()
				for i, tr := range trackers[1:] {
					est := tr.Estimates()
					if len(est) != len(refEst) {
						t.Fatalf("parallelism %d: vector length %d vs %d after batch %d",
							parallelisms[i+1], len(est), len(refEst), b)
					}
					for v := range est {
						if math.Float64bits(est[v]) != math.Float64bits(refEst[v]) {
							t.Fatalf("parallelism %d: batch %d vertex %d: estimate bits %x differ from sequential %x",
								parallelisms[i+1], b, v, math.Float64bits(est[v]), math.Float64bits(refEst[v]))
						}
						rv, refv := tr.Residual(dynppr.VertexID(v)), ref.Residual(dynppr.VertexID(v))
						if math.Float64bits(rv) != math.Float64bits(refv) {
							t.Fatalf("parallelism %d: batch %d vertex %d: residual bits differ",
								parallelisms[i+1], b, v)
						}
					}
				}
			}
			// The deterministic engine must also honour the ε contract.
			oracle, err := power.ReverseGraph(trackers[0].Graph(), source, power.Options{
				Alpha: 0.15, Tolerance: 1e-13, MaxIterations: 20_000,
			})
			if err != nil {
				t.Fatal(err)
			}
			var worst float64
			for v, est := range trackers[0].Estimates() {
				if d := math.Abs(est - oracle[v]); d > worst {
					worst = d
				}
			}
			if worst > epsilon {
				t.Fatalf("max error vs oracle %v exceeds ε %v", worst, epsilon)
			}
		})
	}
}

// TestDifferentialInvariant checks the structural property the scheme rests
// on: after arbitrary mixed batches, Equation 2 holds at every vertex for
// every engine (the invariant error stays at floating-point noise even
// though residuals are only bounded by ε).
func TestDifferentialInvariant(t *testing.T) {
	universe, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: dynppr.ModelRMAT, Vertices: 100, Edges: 500, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := randomUpdateStream(universe, 77, 3, 50)
	for _, c := range allEngineConfigs() {
		g := graph.FromEdges(nil)
		opts := dynppr.DefaultOptions()
		opts.Engine = c.engine
		opts.Epsilon = 1e-4
		opts.Parallelism = 2
		tr, err := dynppr.NewTracker(g, 0, opts)
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
	stream := randomUpdateStream(universe, 36, 12, 200)
	for i, b := range stream {
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
