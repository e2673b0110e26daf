package parallel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dynppr/internal/fp"
	"dynppr/internal/gen"
	"dynppr/internal/graph"
	"dynppr/internal/power"
	"dynppr/internal/push"
	"dynppr/internal/stream"
)

// replay is one push.State fed a seeded mixed insert/delete stream, one
// batch per step; the engine is handed in per call, so a test decides whether
// a state keeps one engine to itself or shares it.
type replay struct {
	st   *push.State
	base []graph.Edge
	rng  *rand.Rand
	next int
}

// newReplay builds the state over the first two thirds of a seeded R-MAT edge
// list and cold-starts it with e.
func newReplay(t *testing.T, e push.Engine, vertices, edges int, seed int64) *replay {
	t.Helper()
	base, err := gen.EdgeList(gen.Config{Model: gen.RMAT, Vertices: vertices, Edges: edges, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	next := len(base) * 2 / 3
	g := graph.FromEdges(base[:next])
	source := g.TopDegreeVertices(1)[0]
	st, err := push.NewState(g, source, push.Config{Alpha: 0.15, Epsilon: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(st, []graph.VertexID{source})
	return &replay{st: st, base: base, rng: rand.New(rand.NewSource(seed + 7)), next: next}
}

// step applies the stream's next batch of 50 updates and pushes with e.
func (rp *replay) step(t *testing.T, e push.Engine) {
	t.Helper()
	e.Run(rp.st, rp.mutate())
	if !rp.st.Converged() {
		t.Fatalf("%s: batch not converged", e.Name())
	}
}

// mutate applies the stream's next batch of 50 updates to the graph and the
// state's invariant, without pushing, and returns the source endpoints of
// the effective updates in stream order (duplicates included).
func (rp *replay) mutate() []graph.VertexID {
	g := rp.st.Graph()
	var touched []graph.VertexID
	for k := 0; k < 50; k++ {
		var e graph.Edge
		op := stream.Insert
		if rp.rng.Intn(3) == 0 {
			edges := g.Edges()
			if len(edges) == 0 {
				continue
			}
			e, op = edges[rp.rng.Intn(len(edges))], stream.Delete
		} else {
			e = rp.base[rp.next%len(rp.base)]
			rp.next++
		}
		touched = push.Restore(g, []*push.State{rp.st}, stream.Batch{{U: e.U, V: e.V, Op: op}}, touched)
	}
	return touched
}

// replayStates runs the same five-batch stream through one push.State per
// engine and returns the final states. All engines see identical graphs and
// batches.
func replayStates(t *testing.T, engines []push.Engine, seed int64) []*push.State {
	t.Helper()
	states := make([]*push.State, len(engines))
	for i, e := range engines {
		rp := newReplay(t, e, 150, 1200, seed)
		for b := 0; b < 5; b++ {
			rp.step(t, e)
		}
		states[i] = rp.st
	}
	return states
}

// requireSameBits fails unless got's estimates and residuals carry exactly
// want's float64 bits.
func requireSameBits(t *testing.T, name string, got, want *push.State) {
	t.Helper()
	same := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	if !same(got.Estimates(), want.Estimates()) || !same(got.Residuals(), want.Residuals()) {
		t.Fatalf("%s: estimate or residual bits differ", name)
	}
}

// TestSharedEngineBitIdenticalToDedicated pins that an engine keeps nothing
// of a state between runs: an engine driven alternately over two
// states — on different graphs, the second larger so the engine's buffers
// grow mid-stream — leaves both with exactly the bits two dedicated engines
// produce. Nothing of one state's run (stripe deltas, marks, recycled
// frontiers) may leak into the next.
func TestSharedEngineBitIdenticalToDedicated(t *testing.T) {
	for _, tc := range []struct{ workers, cutover int }{
		{1, 0}, {4, 0}, {1, 1}, {4, 1}, // cutover 0 = default, 1 = always fan out
	} {
		shared := NewPushEngineCutover(tc.workers, tc.cutover)
		small := newReplay(t, shared, 150, 1200, 31)
		large := newReplay(t, shared, 400, 3600, 37)
		dedSmall, dedLarge := NewPushEngineCutover(tc.workers, tc.cutover), NewPushEngineCutover(tc.workers, tc.cutover)
		wantSmall := newReplay(t, dedSmall, 150, 1200, 31)
		wantLarge := newReplay(t, dedLarge, 400, 3600, 37)
		for b := 0; b < 5; b++ {
			small.step(t, shared)
			large.step(t, shared)
			wantSmall.step(t, dedSmall)
			wantLarge.step(t, dedLarge)
		}
		name := shared.Name()
		requireSameBits(t, name+" small", small.st, wantSmall.st)
		requireSameBits(t, name+" large", large.st, wantLarge.st)
	}
}

// TestRunCandidateHandling pins how Run reads its candidate list: ids
// outside the graph are dropped and the rest sorted and deduplicated before
// the first frontier is built, so a messy list leaves exactly the bits of
// the clean one; nil scans every vertex (the same bits again, since only the
// candidates can violate the threshold after a restore), and an empty
// non-nil list pushes nothing. It also pins the constructor defaults.
func TestRunCandidateHandling(t *testing.T) {
	e := NewPushEngine(0)
	if e.Workers() < 1 || e.cutover != fp.Cutover || e.Name() != fmt.Sprintf("deterministic-w%d", e.Workers()) {
		t.Fatalf("defaults: %s, cutover %d", e.Name(), e.cutover)
	}
	if e4 := NewPushEngine(4); e4.Name() != "deterministic-w4" || e4.Workers() != 4 {
		t.Fatalf("engine accessors: %s", e4.Name())
	}
	for _, workers := range []int{1, 4} {
		// Cutover 1 fans every round out, so the messy list meets the
		// stripe partition and the concurrent merge, not just the inline path.
		eng := NewPushEngineCutover(workers, 1)
		clean := newReplay(t, eng, 150, 1200, 41)
		messy := newReplay(t, eng, 150, 1200, 41)
		full := newReplay(t, eng, 150, 1200, 41)
		for b := 0; b < 4; b++ {
			touched := clean.mutate()
			messy.mutate()
			full.mutate()
			sorted := slices.Compact(slices.Sorted(slices.Values(touched)))
			n := graph.VertexID(clean.st.Graph().NumVertices())
			dirty := append([]graph.VertexID{n, -1, n + 5, 1 << 30, -7}, touched...)
			slices.Reverse(dirty)
			dirty = append(dirty, touched...)

			// An empty list pushes nothing, whether or not the engine's
			// candidate buffer has storage yet.
			pushes := full.st.Counters.Snapshot().Pushes
			p, r := full.st.Estimates(), full.st.Residuals()
			eng.Run(full.st, []graph.VertexID{})
			NewPushEngine(workers).Run(full.st, []graph.VertexID{})
			if got := full.st.Counters.Snapshot().Pushes; got != pushes {
				t.Fatalf("%s: empty candidate list pushed %d times", eng.Name(), got-pushes)
			}
			for v, x := range full.st.Estimates() {
				if math.Float64bits(x) != math.Float64bits(p[v]) || math.Float64bits(full.st.Residual(graph.VertexID(v))) != math.Float64bits(r[v]) {
					t.Fatalf("%s: empty candidate list changed vertex %d", eng.Name(), v)
				}
			}

			eng.Run(clean.st, sorted)
			eng.Run(messy.st, dirty)
			eng.Run(full.st, nil)
			if !clean.st.Converged() || !full.st.Converged() {
				t.Fatalf("%s: batch %d not converged", eng.Name(), b)
			}
			requireSameBits(t, eng.Name()+" messy candidates", messy.st, clean.st)
			requireSameBits(t, eng.Name()+" full scan", full.st, clean.st)
		}
	}
}

// TestDeterministicBitIdenticalAcrossWorkers is the core determinism claim:
// over a dynamic stream of inserts and deletes, the engine's estimate and
// residual vectors carry exactly the same float64 bits at parallelism 1, 2,
// 3, 8 and 16 — worker count is pure scheduling.
func TestDeterministicBitIdenticalAcrossWorkers(t *testing.T) {
	engines := []push.Engine{
		NewPushEngine(1),
		NewPushEngine(2),
		NewPushEngine(3),
		NewPushEngine(8),
		NewPushEngine(16),
	}
	states := replayStates(t, engines, 11)
	for i, st := range states[1:] {
		requireSameBits(t, engines[i+1].Name(), st, states[0])
	}
}

// TestCutoverDoesNotChangeBits pins that the adaptive cutover is pure
// scheduling too: forcing every round inline (huge cutover) and forcing
// every round through the fan-out (zero-ish cutover = 1) both reproduce the
// default engine's bits.
func TestCutoverDoesNotChangeBits(t *testing.T) {
	engines := []push.Engine{
		NewPushEngine(4),
		NewPushEngineCutover(4, 1),
		NewPushEngineCutover(4, 1<<30),
	}
	states := replayStates(t, engines, 23)
	for i, st := range states[1:] {
		requireSameBits(t, fmt.Sprintf("%s (case %d)", engines[i+1].Name(), i), st, states[0])
	}
}

// TestDeterministicApproximatesOracle checks the engine keeps the push
// contract: converged, invariant intact, within ε of the exact vector.
func TestDeterministicApproximatesOracle(t *testing.T) {
	g, err := gen.Generate(gen.Config{Model: gen.RMAT, Vertices: 300, Edges: 2500, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	source := g.TopDegreeVertices(1)[0]
	cfg := push.Config{Alpha: 0.15, Epsilon: 1e-4}
	oracle, err := power.ReverseGraph(g, source, power.Options{Alpha: cfg.Alpha, Tolerance: 1e-13, MaxIterations: 20000})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		e := NewPushEngine(workers)
		st, err := push.NewState(g, source, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Run(st, []graph.VertexID{source})
		if !st.Converged() {
			t.Fatalf("%s: not converged", e.Name())
		}
		if inv := st.InvariantError(); inv > 1e-9 {
			t.Fatalf("%s: invariant error %v", e.Name(), inv)
		}
		if worst := power.MaxAbsDiff(st.Estimates(), oracle); worst > cfg.Epsilon {
			t.Fatalf("%s: max error %v exceeds epsilon %v", e.Name(), worst, cfg.Epsilon)
		}
	}
}

// TestRunOnConvergedStateIsNoop mirrors the push package's contract test.
func TestRunOnConvergedStateIsNoop(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{{U: 1, V: 0}, {U: 2, V: 0}, {U: 2, V: 1}})
	st, err := push.NewState(g, 0, push.Config{Alpha: 0.15, Epsilon: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	e := NewPushEngine(2)
	e.Run(st, []graph.VertexID{0})
	before := st.Estimates()
	e.Run(st, nil)
	after := st.Estimates()
	for v := range before {
		if math.Float64bits(before[v]) != math.Float64bits(after[v]) {
			t.Fatalf("re-running on a converged state changed vertex %d", v)
		}
	}
}

// TestSelfLoopAndDangling exercises the corner topologies through the
// deterministic schedule: a self-loop keeps propagating to its own residual,
// and a vertex with a deleted last out-edge flips through the negative
// phase.
func TestSelfLoopAndDangling(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{{U: 0, V: 0}, {U: 1, V: 0}, {U: 2, V: 1}})
	st, err := push.NewState(g, 0, push.Config{Alpha: 0.15, Epsilon: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	e := NewPushEngine(2)
	e.Run(st, []graph.VertexID{0})
	if !st.Converged() {
		t.Fatal("not converged with self-loop")
	}
	if changed, _ := st.ApplyDelete(1, 0); !changed {
		t.Fatal("delete must apply")
	}
	e.Run(st, []graph.VertexID{1})
	if !st.Converged() {
		t.Fatal("not converged after deletion")
	}
	oracle, err := power.ReverseGraph(st.Graph(), 0, power.Options{Alpha: 0.15, Tolerance: 1e-13, MaxIterations: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if worst := power.MaxAbsDiff(st.Estimates(), oracle); worst > 1e-7 {
		t.Fatalf("max error %v", worst)
	}
}
