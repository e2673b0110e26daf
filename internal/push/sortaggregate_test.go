package push

import (
	"math"
	"testing"

	"dynppr/internal/gen"
	"dynppr/internal/graph"
	"dynppr/internal/power"
)

func TestSortAggregateName(t *testing.T) {
	e := NewSortAggregate(4)
	if e.Name() != "sort-aggregate-w4" || e.Workers() != 4 {
		t.Fatalf("accessors wrong: %s", e.Name())
	}
	if NewSortAggregate(0).Workers() < 1 {
		t.Fatal("workers must default to >= 1")
	}
}

// On the paper's running example the sort-aggregate engine behaves like the
// vanilla parallel push (same session order, same residual snapshot), so it
// must reproduce Figure 3 a(4) exactly.
func TestSortAggregateMatchesFigure3(t *testing.T) {
	st, err := NewState(paperGraph(), 0, paperConfig())
	if err != nil {
		t.Fatal(err)
	}
	NewSortAggregate(1).Run(st, []graph.VertexID{0})
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
	if err := requireInvariant(st); err != nil {
		t.Error(err)
	}
}

// The sort-aggregate engine performs exactly the same pushes as the vanilla
// atomic engine when run single-threaded (identical session order), so their
// work counters must agree.
func TestSortAggregateWorkMatchesVanilla(t *testing.T) {
	g, err := gen.Generate(gen.Config{Model: gen.BarabasiAlbert, Vertices: 200, Edges: 2000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	source := g.TopDegreeVertices(1)[0]
	cfg := Config{Alpha: 0.15, Epsilon: 1e-5}

	a, err := NewState(g.Clone(), source, cfg)
	if err != nil {
		t.Fatal(err)
	}
	NewParallel(VariantVanilla, 1).Run(a, []graph.VertexID{source})

	b, err := NewState(g.Clone(), source, cfg)
	if err != nil {
		t.Fatal(err)
	}
	NewSortAggregate(1).Run(b, []graph.VertexID{source})

	if a.Counters.Pushes != b.Counters.Pushes {
		t.Fatalf("pushes differ: vanilla %d vs sort-aggregate %d", a.Counters.Pushes, b.Counters.Pushes)
	}
	if a.Counters.Propagations != b.Counters.Propagations {
		t.Fatalf("propagations differ: %d vs %d", a.Counters.Propagations, b.Counters.Propagations)
	}
	if d := power.MaxAbsDiff(a.Estimates(), b.Estimates()); d > 1e-12 {
		t.Fatalf("estimates differ by %v", d)
	}
	// The whole point of the method: no atomic operations at all.
	if b.Counters.AtomicAdds != 0 {
		t.Fatalf("sort-aggregate must not use atomic adds, counted %d", b.Counters.AtomicAdds)
	}
}
