package push

import (
	"math"
	"testing"

	"dynppr/internal/gen"
	"dynppr/internal/graph"
	"dynppr/internal/power"
)

func TestVariantString(t *testing.T) {
	if VariantOpt.String() != "Opt" || VariantEager.String() != "Eager" ||
		VariantDupDetect.String() != "DupDetect" || VariantVanilla.String() != "Vanilla" {
		t.Fatal("variant names wrong")
	}
}

func TestEngineNames(t *testing.T) {
	if NewSequential().Name() != "sequential" {
		t.Fatal("sequential name")
	}
	p := NewParallel(VariantOpt, 4)
	if p.Name() != "parallel-Opt-w4" || p.Workers() != 4 || p.Variant() != VariantOpt {
		t.Fatalf("parallel accessors: %s", p.Name())
	}
	if NewParallel(VariantVanilla, 0).Workers() < 1 {
		t.Fatal("workers must default to >= 1")
	}
}

// The sequential push on the cold-start paper example must reproduce the
// convergent state of Figure 3 b(5): P = (0.5, 0.25, 0.1875, 0.0937…) and the
// only non-zero residual 0.0937… at the source.
func TestSequentialMatchesFigure3(t *testing.T) {
	st, err := NewState(paperGraph(), 0, paperConfig())
	if err != nil {
		t.Fatal(err)
	}
	NewSequential().Run(st, []graph.VertexID{0})
	wantP := []float64{0.5, 0.25, 0.1875, 0.09375}
	for v, want := range wantP {
		if got := st.Estimate(graph.VertexID(v)); math.Abs(got-want) > 1e-12 {
			t.Errorf("P[%d] = %v, want %v", v, got, want)
		}
	}
	if got := st.Residual(0); math.Abs(got-0.09375) > 1e-12 {
		t.Errorf("R[0] = %v, want 0.09375", got)
	}
	for v := graph.VertexID(1); v < 4; v++ {
		if got := st.Residual(v); got != 0 {
			t.Errorf("R[%d] = %v, want 0", v, got)
		}
	}
	if !st.Converged() {
		t.Error("not converged")
	}
	if err := requireInvariant(st); err != nil {
		t.Error(err)
	}
	// The sequential run of Figure 3 pushes v1, v2, v3, v4: four pushes.
	if st.Counters.Pushes != 4 {
		t.Errorf("pushes = %d, want 4", st.Counters.Pushes)
	}
}

// The vanilla parallel push on the same cold start must reproduce Figure 3
// a(4): P = (0.5, 0.25, 0.1875, 0.0625) with residuals 0.0625 at v1 and v4,
// and it must cost one extra push (v3 pushed twice — "parallel loss").
func TestVanillaParallelMatchesFigure3(t *testing.T) {
	st, err := NewState(paperGraph(), 0, paperConfig())
	if err != nil {
		t.Fatal(err)
	}
	NewParallel(VariantVanilla, 1).Run(st, []graph.VertexID{0})
	wantP := []float64{0.5, 0.25, 0.1875, 0.0625}
	wantR := []float64{0.0625, 0, 0, 0.0625}
	for v := range wantP {
		if got := st.Estimate(graph.VertexID(v)); math.Abs(got-wantP[v]) > 1e-12 {
			t.Errorf("P[%d] = %v, want %v", v, got, wantP[v])
		}
		if got := st.Residual(graph.VertexID(v)); math.Abs(got-wantR[v]) > 1e-12 {
			t.Errorf("R[%d] = %v, want %v", v, got, wantR[v])
		}
	}
	if !st.Converged() {
		t.Error("not converged")
	}
	if err := requireInvariant(st); err != nil {
		t.Error(err)
	}
	if st.Counters.Pushes != 5 {
		t.Errorf("pushes = %d, want 5 (parallel loss pushes v3 twice)", st.Counters.Pushes)
	}
}

// Eager propagation removes the parallel loss of the example: with a single
// worker it performs the same four pushes as the sequential algorithm and
// reaches the same convergent state.
func TestEagerRemovesParallelLossOnFigure3(t *testing.T) {
	for _, variant := range []Variant{VariantOpt, VariantEager} {
		st, err := NewState(paperGraph(), 0, paperConfig())
		if err != nil {
			t.Fatal(err)
		}
		NewParallel(variant, 1).Run(st, []graph.VertexID{0})
		if st.Counters.Pushes != 4 {
			t.Errorf("%v: pushes = %d, want 4", variant, st.Counters.Pushes)
		}
		wantP := []float64{0.5, 0.25, 0.1875, 0.09375}
		for v, want := range wantP {
			if got := st.Estimate(graph.VertexID(v)); math.Abs(got-want) > 1e-12 {
				t.Errorf("%v: P[%d] = %v, want %v", variant, v, got, want)
			}
		}
		if err := requireInvariant(st); err != nil {
			t.Errorf("%v: %v", variant, err)
		}
	}
}

// Lemma 4 (parallel loss): on the paper's example the vanilla parallel push
// performs at least as many pushes as the sequential push, and the eager
// variants perform no more than the vanilla one.
func TestParallelLossOrdering(t *testing.T) {
	run := func(e Engine) int64 {
		st, err := NewState(paperGraph(), 0, paperConfig())
		if err != nil {
			t.Fatal(err)
		}
		e.Run(st, []graph.VertexID{0})
		return st.Counters.Pushes
	}
	seq := run(NewSequential())
	vanilla := run(NewParallel(VariantVanilla, 1))
	opt := run(NewParallel(VariantOpt, 1))
	if vanilla < seq {
		t.Errorf("vanilla pushes %d < sequential %d", vanilla, seq)
	}
	if opt > vanilla {
		t.Errorf("opt pushes %d > vanilla %d", opt, vanilla)
	}
}

// The Vanilla variant's global duplicate detection must actually reject
// duplicates on a graph with shared in-neighbors, and the Opt variant must
// never touch the shared membership structure.
func TestDuplicateDetectionCounters(t *testing.T) {
	// Build a bipartite-ish graph where many frontier vertices share a common
	// in-neighbor, guaranteeing duplicate enqueue attempts.
	edges := []graph.Edge{}
	// hub has edges to 0..9 (hub's out-neighbors), so hub is an in-neighbor
	// of none... we need many frontier vertices with the SAME in-neighbor w:
	// w -> f_i for all i, so w ∈ Nin(f_i).
	const hub = 100
	for i := 0; i < 10; i++ {
		edges = append(edges, graph.Edge{U: hub, V: graph.VertexID(i)})
		// and each f_i points at the source so they all become frontier.
		edges = append(edges, graph.Edge{U: graph.VertexID(i), V: 200})
	}
	g := graph.FromEdges(edges)
	cfg := Config{Alpha: 0.15, Epsilon: 1e-6}

	stVanilla, err := NewState(g.Clone(), 200, cfg)
	if err != nil {
		t.Fatal(err)
	}
	NewParallel(VariantVanilla, 4).Run(stVanilla, []graph.VertexID{200})
	if stVanilla.Counters.DuplicateAttempts == 0 {
		t.Error("vanilla variant should have rejected duplicate enqueues on this graph")
	}

	stOpt, err := NewState(g.Clone(), 200, cfg)
	if err != nil {
		t.Fatal(err)
	}
	NewParallel(VariantOpt, 4).Run(stOpt, []graph.VertexID{200})
	if stOpt.Counters.DuplicateAttempts != 0 {
		t.Error("opt variant must not perform global duplicate detection")
	}
}

// Scan-all (nil candidates) and candidate-driven runs must produce the same
// result.
func TestNilCandidatesEquivalent(t *testing.T) {
	g, err := gen.Generate(gen.Config{Model: gen.RMAT, Vertices: 100, Edges: 600, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Alpha: 0.15, Epsilon: 1e-4}
	a, err := NewState(g.Clone(), 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	NewSequential().Run(a, nil)
	b, err := NewState(g.Clone(), 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	NewSequential().Run(b, []graph.VertexID{3})
	if d := power.MaxAbsDiff(a.Estimates(), b.Estimates()); d > 1e-12 {
		t.Fatalf("scan-all and candidate runs differ by %v", d)
	}
}

// An engine run on an already converged state must do nothing.
func TestRunOnConvergedStateIsNoop(t *testing.T) {
	st, err := NewState(paperGraph(), 0, paperConfig())
	if err != nil {
		t.Fatal(err)
	}
	NewSequential().Run(st, []graph.VertexID{0})
	before := st.Estimates()
	pushes := st.Counters.Pushes
	for _, e := range []Engine{NewSequential(), NewParallel(VariantOpt, 4), NewParallel(VariantVanilla, 2)} {
		e.Run(st, nil)
	}
	if st.Counters.Pushes != pushes {
		t.Fatalf("extra pushes on converged state: %d -> %d", pushes, st.Counters.Pushes)
	}
	if d := power.MaxAbsDiff(before, st.Estimates()); d != 0 {
		t.Fatalf("estimates changed by %v", d)
	}
}

// Multi-worker determinism of the result quality: different worker counts may
// produce different (but all valid) estimates; each must stay within ε of the
// oracle. This guards the atomic update paths under real contention.
func TestParallelManyWorkersUnderContention(t *testing.T) {
	g, err := gen.Generate(gen.Config{Model: gen.BarabasiAlbert, Vertices: 400, Edges: 6000, Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	source := g.TopDegreeVertices(1)[0]
	cfg := Config{Alpha: 0.15, Epsilon: 5e-5}
	oracle, err := power.ReverseGraph(g, source, power.Options{Alpha: cfg.Alpha, Tolerance: 1e-13, MaxIterations: 20000})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 16} {
		for _, variant := range []Variant{VariantOpt, VariantVanilla, VariantEager, VariantDupDetect} {
			st, err := NewState(g, source, cfg)
			if err != nil {
				t.Fatal(err)
			}
			NewParallel(variant, workers).Run(st, []graph.VertexID{source})
			if worst := power.MaxAbsDiff(st.Estimates(), oracle); worst > cfg.Epsilon {
				t.Errorf("%v w=%d: max error %v exceeds epsilon", variant, workers, worst)
			}
		}
	}
}
