package dynppr_test

// The Tracker's differentials: what the root adds to the push engines is the
// choice of engine (Options.Engine and Parallelism) and the batch
// procedure that drives it. The engines themselves, under that same
// procedure, are checked against power iteration by the engine table in
// internal/push; here a Tracker must carry exactly the bits of the engine its
// options name, driven by hand.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dynppr"
	"dynppr/internal/graph"
	"dynppr/internal/parallel"
	"dynppr/internal/push"
)

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

// requireTrackerBits fails unless tr's estimates and residuals carry exactly
// st's float64 bits.
func requireTrackerBits(t *testing.T, tag string, tr *dynppr.Tracker, st *push.State) {
	t.Helper()
	got, want, wantR := tr.Estimates(), st.Estimates(), st.Residuals()
	same := len(got) == len(want)
	for v := 0; same && v < len(got); v++ {
		same = math.Float64bits(got[v]) == math.Float64bits(want[v]) &&
			math.Float64bits(tr.Residual(dynppr.VertexID(v))) == math.Float64bits(wantR[v])
	}
	if !same {
		t.Fatalf("%s: the Tracker's estimate or residual bits differ from its engine's", tag)
	}
}

// engineKinds pairs each EngineKind with the engine it names at the
// parallelism a Tracker runs it with. EngineParallel runs at parallelism 1,
// where its atomic adds land in a fixed order.
var engineKinds = []struct {
	kind        dynppr.EngineKind
	parallelism int
	engine      push.Engine
}{
	{dynppr.EngineSequential, 2, push.NewSequential()},
	{dynppr.EngineParallel, 1, push.NewParallel(push.VariantOpt, 1)},
	{dynppr.EngineDeterministic, 2, parallel.NewPushEngine(2)},
}

// newKindTracker builds a Tracker at ε 1e-5 over initial with the given
// engine and parallelism.
func newKindTracker(t *testing.T, initial []dynppr.Edge, source dynppr.VertexID, kind dynppr.EngineKind, parallelism int) *dynppr.Tracker {
	t.Helper()
	opts := dynppr.DefaultOptions()
	opts.Engine = kind
	opts.Epsilon = 1e-5
	opts.Parallelism = parallelism
	tr, err := dynppr.NewTracker(dynppr.GraphFromEdges(initial), source, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// requireEngineBits replays stream on every tracker and, beside them, on
// engine driven by push.Restore, Run and MaybeCompact from the same cold
// start; after the cold start and every batch each tracker must carry
// exactly the engine's estimate and residual bits.
func requireEngineBits(t *testing.T, initial []dynppr.Edge, source dynppr.VertexID, stream []dynppr.Batch, engine push.Engine, trackers ...*dynppr.Tracker) {
	t.Helper()
	g := graph.FromEdges(initial)
	st, err := push.NewState(g, source, push.Config{Alpha: 0.15, Epsilon: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	engine.Run(st, []graph.VertexID{source})
	for _, tr := range trackers {
		requireTrackerBits(t, engine.Name()+" cold start", tr, st)
	}
	var touched []graph.VertexID
	for i, b := range stream {
		if touched = push.Restore(g, []*push.State{st}, b, touched[:0]); len(touched) > 0 {
			engine.Run(st, touched)
		}
		g.MaybeCompact()
		for _, tr := range trackers {
			tr.ApplyBatch(b)
			requireTrackerBits(t, fmt.Sprintf("%s batch %d", engine.Name(), i), tr, st)
		}
	}
}

// requireKindBits runs requireEngineBits for every EngineKind.
func requireKindBits(t *testing.T, initial []dynppr.Edge, source dynppr.VertexID, stream []dynppr.Batch) {
	t.Helper()
	for _, k := range engineKinds {
		requireEngineBits(t, initial, source, stream, k.engine, newKindTracker(t, initial, source, k.kind, k.parallelism))
	}
}

// TestDifferentialEngines checks that each EngineKind runs the engine it
// names through the Tracker's batch procedure, over mixed insert/delete
// streams on ER, BA and R-MAT graphs.
func TestDifferentialEngines(t *testing.T) {
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
			requireKindBits(t, initial, source, randomUpdateStream(universe, m.seed+1000, 4, 60))
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
// window much smaller than the graph (10% of a 900-edge stream), so the
// entire edge set turns over during the run.
func slidingWindowScenario(t *testing.T) (initial []dynppr.Edge, source dynppr.VertexID, batches []dynppr.Batch) {
	t.Helper()
	universe, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: dynppr.ModelRMAT, Vertices: 120, Edges: 900, Seed: 61,
	})
	if err != nil {
		t.Fatal(err)
	}
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

// TestDifferentialDeleteHeavy runs the EngineKind check over the
// delete-heavy stream, so the Tracker's deletion path and its compactions
// carry it, not just the insert path.
func TestDifferentialDeleteHeavy(t *testing.T) {
	initial, source, stream := deleteHeavyScenario(t)
	requireKindBits(t, initial, source, stream)
	g := dynppr.GraphFromEdges(initial)
	for _, b := range stream {
		b.Apply(g)
	}
	if got := g.NumEdges(); got >= len(initial)/2 {
		t.Fatalf("stream was not delete-heavy: %d of %d edges remain", got, len(initial))
	}
}

// TestDifferentialSlidingWindow runs the EngineKind check over the
// sliding-window stream.
func TestDifferentialSlidingWindow(t *testing.T) {
	initial, source, batches := slidingWindowScenario(t)
	requireKindBits(t, initial, source, batches)
}

// TestDifferentialDeterministicBitIdentical is the determinism contract of
// EngineDeterministic at the public API: over the delete-heavy and
// sliding-window streams, Trackers at parallelism 1, 2 and 8 carry exactly
// the bits of the deterministic engine on one worker after every batch.
func TestDifferentialDeterministicBitIdentical(t *testing.T) {
	scenarios := []struct {
		name  string
		build func(*testing.T) ([]dynppr.Edge, dynppr.VertexID, []dynppr.Batch)
	}{
		{"delete-heavy", deleteHeavyScenario},
		{"sliding-window", slidingWindowScenario},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			initial, source, stream := sc.build(t)
			var trackers []*dynppr.Tracker
			for _, par := range []int{1, 2, 8} {
				trackers = append(trackers, newKindTracker(t, initial, source, dynppr.EngineDeterministic, par))
			}
			requireEngineBits(t, initial, source, stream, parallel.NewPushEngine(1), trackers...)
		})
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
				tr.ApplyBatch(dynppr.Batch{u})
			}
			continue
		}
		tr.ApplyBatch(b)
	}
	got := tr.Counters()
	want := dynppr.Counters{
		Pushes: 459088, Propagations: 3951899, Enqueues: 458635,
		Iterations: 459088, FrontierPeak: 1, FrontierTotal: 459088,
		RestoreOps: 654,
	}
	if got != want {
		t.Fatalf("counters = %+v\nwant       %+v", got, want)
	}
}
