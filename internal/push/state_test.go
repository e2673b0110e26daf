package push

import (
	"fmt"
	"testing"

	"dynppr/internal/graph"
)

// paperGraph builds the 4-vertex running example of Figures 1 and 3, with the
// paper's vertices v1..v4 renumbered 0..3:
// edges 1->4, 2->1, 3->1, 3->2, 4->3.
func paperGraph() *graph.Graph {
	return graph.FromEdges([]graph.Edge{
		{U: 0, V: 3},
		{U: 1, V: 0},
		{U: 2, V: 0},
		{U: 2, V: 1},
		{U: 3, V: 2},
	})
}

// paperConfig is the example's parameter setting: α = 0.5, ε = 0.1.
func paperConfig() Config { return Config{Alpha: 0.5, Epsilon: 0.1} }

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Alpha: 0, Epsilon: 0.1},
		{Alpha: 1, Epsilon: 0.1},
		{Alpha: -0.1, Epsilon: 0.1},
		{Alpha: 0.15, Epsilon: 0},
		{Alpha: 0.15, Epsilon: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", c)
		}
	}
	if err := (Config{Alpha: 0.15, Epsilon: 1e-6}).Validate(); err != nil {
		t.Errorf("the paper's default config is invalid: %v", err)
	}
}

func TestNewStateBasics(t *testing.T) {
	g := paperGraph()
	st, err := NewState(g, 0, paperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st.Source() != 0 || st.Alpha() != 0.5 || st.Epsilon() != 0.1 {
		t.Fatal("accessors wrong")
	}
	if st.Graph() != g {
		t.Fatal("Graph() must return the tracked graph")
	}
	if st.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d", st.NumVertices())
	}
	// Cold start: all mass as residual at the source.
	if st.Residual(0) != 1 || st.Estimate(0) != 0 {
		t.Fatalf("cold start wrong: R=%v P=%v", st.Residual(0), st.Estimate(0))
	}
	if st.MaxResidual() != 1 {
		t.Fatal("residual norm wrong")
	}
	if st.Converged() {
		t.Fatal("cold start with eps=0.1 must not be converged")
	}
	// Out-of-range lookups return zero.
	if st.Estimate(99) != 0 || st.Residual(-1) != 0 {
		t.Fatal("out-of-range lookups must be 0")
	}
	// The cold-start state satisfies the invariant exactly.
	if err := requireInvariant(st); err != nil {
		t.Fatal(err)
	}
}

func TestNewStateErrors(t *testing.T) {
	g := paperGraph()
	if _, err := NewState(g, 0, Config{Alpha: 2, Epsilon: 0.1}); err == nil {
		t.Fatal("invalid config must fail")
	}
	if _, err := NewState(g, -3, paperConfig()); err == nil {
		t.Fatal("negative source must fail")
	}
	// A source beyond the current graph is created on demand.
	st, err := NewState(g, 10, paperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st.Graph().NumVertices() != 11 || st.Residual(10) != 1 {
		t.Fatal("source vertex not created")
	}
}

func requireInvariant(st *State) error {
	if e := st.InvariantError(); e > 1e-9 {
		return fmt.Errorf("invariant violated by %g", e)
	}
	return nil
}

func TestRestoreInvariantInsert(t *testing.T) {
	g := paperGraph()
	st, err := NewState(g, 0, paperConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Converge the cold start first.
	NewSequential().Run(st, []graph.VertexID{0})
	if err := requireInvariant(st); err != nil {
		t.Fatal(err)
	}
	// Insert a fresh edge; the invariant must still hold exactly afterwards.
	changed, err := st.ApplyInsert(1, 3)
	if err != nil || !changed {
		t.Fatalf("ApplyInsert = %v, %v", changed, err)
	}
	if err := requireInvariant(st); err != nil {
		t.Fatal(err)
	}
	// Inserting the same edge again changes nothing.
	changed, err = st.ApplyInsert(1, 3)
	if err != nil || changed {
		t.Fatalf("duplicate ApplyInsert = %v, %v", changed, err)
	}
}

func TestRestoreInvariantDelete(t *testing.T) {
	g := paperGraph()
	st, err := NewState(g, 0, paperConfig())
	if err != nil {
		t.Fatal(err)
	}
	NewSequential().Run(st, []graph.VertexID{0})
	changed, err := st.ApplyDelete(2, 1)
	if err != nil || !changed {
		t.Fatalf("ApplyDelete = %v, %v", changed, err)
	}
	if err := requireInvariant(st); err != nil {
		t.Fatal(err)
	}
	// Deleting a missing edge is a silent no-op.
	changed, err = st.ApplyDelete(2, 1)
	if err != nil || changed {
		t.Fatalf("missing-edge ApplyDelete = %v, %v", changed, err)
	}
}

func TestRestoreInvariantDeleteLastOutEdge(t *testing.T) {
	// Vertex 1 has a single out-edge 1->0; deleting it makes 1 dangling and
	// must still leave the invariant intact (the special dout=0 case).
	g := paperGraph()
	st, err := NewState(g, 0, paperConfig())
	if err != nil {
		t.Fatal(err)
	}
	NewSequential().Run(st, []graph.VertexID{0})
	changed, err := st.ApplyDelete(1, 0)
	if err != nil || !changed {
		t.Fatalf("ApplyDelete = %v, %v", changed, err)
	}
	if g.OutDegree(1) != 0 {
		t.Fatal("vertex 1 should be dangling now")
	}
	if err := requireInvariant(st); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreInvariantNewVertex(t *testing.T) {
	g := paperGraph()
	st, err := NewState(g, 0, paperConfig())
	if err != nil {
		t.Fatal(err)
	}
	NewSequential().Run(st, []graph.VertexID{0})
	// Insert an edge from a brand new vertex 7 to the source's neighborhood.
	changed, err := st.ApplyInsert(7, 0)
	if err != nil || !changed {
		t.Fatalf("ApplyInsert = %v, %v", changed, err)
	}
	if st.NumVertices() < 8 {
		t.Fatalf("state not resized: %d", st.NumVertices())
	}
	if err := requireInvariant(st); err != nil {
		t.Fatal(err)
	}
	// The new vertex points at the source; restoring the invariant must give
	// it positive residual (it now has a path to s).
	if st.Residual(7) <= 0 {
		t.Fatalf("new vertex residual = %v, want > 0", st.Residual(7))
	}
}

func TestActiveFrom(t *testing.T) {
	g := paperGraph()
	st, err := NewState(g, 0, paperConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sc scratch
	// Cold start: only the source is active.
	got := st.activeFrom(nil, phasePositive, &sc)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("scan-all frontier = %v", got)
	}
	// Candidate list with duplicates and out-of-range entries.
	got = st.activeFrom([]graph.VertexID{0, 0, 99, -1, 2}, phasePositive, &sc)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("candidate frontier = %v", got)
	}
	// Negative phase finds nothing.
	if got = st.activeFrom(nil, phaseNegative, &sc); len(got) != 0 {
		t.Fatalf("negative frontier = %v", got)
	}
}

func TestPhaseCond(t *testing.T) {
	if !phasePositive.cond(0.2, 0.1) || phasePositive.cond(0.1, 0.1) || phasePositive.cond(-0.5, 0.1) {
		t.Fatal("positive cond wrong")
	}
	if !phaseNegative.cond(-0.2, 0.1) || phaseNegative.cond(-0.1, 0.1) || phaseNegative.cond(0.5, 0.1) {
		t.Fatal("negative cond wrong")
	}
}
