package montecarlo

import (
	"math"
	"testing"
	"testing/quick"

	"dynppr/internal/gen"
	"dynppr/internal/graph"
	"dynppr/internal/power"
)

func smallGraph() *graph.Graph {
	return graph.FromEdges([]graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 1, V: 0}, {U: 2, V: 1}, {U: 0, V: 2},
	})
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Alpha: 0, Walks: 10},
		{Alpha: 1, Walks: 10},
		{Alpha: 0.15, Walks: 0},
		{Alpha: 0.15, Walks: -5},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", c)
		}
	}
	if _, err := New(smallGraph(), 0, Config{Alpha: 0, Walks: 1}); err == nil {
		t.Error("New must reject invalid config")
	}
	if _, err := New(smallGraph(), -1, Config{Alpha: 0.15, Walks: 1}); err == nil {
		t.Error("New must reject negative source")
	}
}

func TestInitialEstimatesSumToOne(t *testing.T) {
	g := smallGraph()
	e, err := New(g, 0, Config{Alpha: 0.15, Walks: 5000, Seed: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if e.Source() != 0 || len(e.traces) != 5000 {
		t.Fatal("accessors wrong")
	}
	var sum float64
	for _, x := range e.Estimates() {
		if x < 0 {
			t.Fatalf("negative estimate %v", x)
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("estimates sum to %v, want 1", sum)
	}
	if err := e.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Out-of-range estimate lookups return 0.
	if e.Estimate(1000) != 0 || e.Estimate(-1) != 0 {
		t.Fatal("out-of-range estimates must be 0")
	}
}

// With enough walks the Monte-Carlo estimate approaches the exact forward PPR
// vector.
func TestEstimatesApproachForwardOracle(t *testing.T) {
	g, err := gen.Generate(gen.Config{Model: gen.RMAT, Vertices: 100, Edges: 800, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	source := g.TopDegreeVertices(1)[0]
	e, err := New(g, source, Config{Alpha: 0.15, Walks: 60_000, Seed: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := power.ForwardGraph(g, source, power.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if worst := power.MaxAbsDiff(e.Estimates(), oracle); worst > 0.01 {
		t.Fatalf("max error %v too large for 60k walks", worst)
	}
}

func TestApplyInsertReroutesOnlyAffectedWalks(t *testing.T) {
	g := smallGraph()
	e, err := New(g, 0, Config{Alpha: 0.3, Walks: 2000, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 5 is not visited by any walk (it does not exist yet), so an
	// insert from it re-routes nothing.
	changed, n, err := e.ApplyInsert(5, 0)
	if err != nil || !changed {
		t.Fatalf("insert from a new vertex: changed=%v err=%v", changed, err)
	}
	if n != 0 {
		t.Fatalf("insert from unvisited vertex re-routed %d walks", n)
	}
	// An insert out of the source touches every walk (they all start there).
	_, n, err = e.ApplyInsert(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(e.traces) {
		t.Fatalf("insert at source re-routed %d walks, want all %d", n, len(e.traces))
	}
	if err := e.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Duplicate insert: no graph change, no rerouting.
	changed, n, err = e.ApplyInsert(0, 5)
	if err != nil || changed || n != 0 {
		t.Fatalf("duplicate insert: changed=%v n=%d err=%v", changed, n, err)
	}
}

func TestApplyDelete(t *testing.T) {
	g := smallGraph()
	e, err := New(g, 0, Config{Alpha: 0.3, Walks: 1000, Seed: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	changed, n, err := e.ApplyDelete(1, 2)
	if err != nil || !changed {
		t.Fatalf("delete of an edge: changed=%v err=%v", changed, err)
	}
	if n == 0 {
		t.Fatal("deleting a frequently used edge should re-route some walks")
	}
	if err := e.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Walks must never traverse the deleted edge anymore.
	for id := 0; id < len(e.traces); id++ {
		trace := e.traces[id]
		for i := 0; i+1 < len(trace); i++ {
			if trace[i] == 1 && trace[i+1] == 2 {
				t.Fatalf("walk %d still uses deleted edge", id)
			}
		}
	}
	// Deleting a missing edge is a no-op.
	if changed, n, err := e.ApplyDelete(1, 2); err != nil || changed || n != 0 {
		t.Fatalf("missing delete: changed=%v n=%d err=%v", changed, n, err)
	}
}

// After dynamic updates the estimator must still approximate the forward PPR
// of the new graph.
func TestDynamicAccuracy(t *testing.T) {
	edges, err := gen.EdgeList(gen.Config{Model: gen.BarabasiAlbert, Vertices: 80, Edges: 600, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromEdges(edges[:400])
	source := g.TopDegreeVertices(1)[0]
	e, err := New(g, source, Config{Alpha: 0.15, Walks: 50_000, Seed: 7, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, ins := range edges[400:] {
		if _, _, err := e.ApplyInsert(ins.U, ins.V); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	oracle, err := power.ForwardGraph(g, source, power.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if worst := power.MaxAbsDiff(e.Estimates(), oracle); worst > 0.015 {
		t.Fatalf("max error %v after updates", worst)
	}
}

func TestDanglingSourceWalks(t *testing.T) {
	// A source with no out-edges: every walk stops immediately at the source.
	g := graph.New(3)
	g.EnsureVertex(2)
	e, err := New(g, 1, Config{Alpha: 0.15, Walks: 100, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if e.Estimate(1) != 1 {
		t.Fatalf("dangling source estimate = %v, want 1", e.Estimate(1))
	}
}

// Property: regardless of the update mix, the index stays consistent and the
// estimates remain a probability distribution.
func TestConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		edges, err := gen.EdgeList(gen.Config{Model: gen.ErdosRenyi, Vertices: 30, Edges: 150, Seed: seed})
		if err != nil {
			return false
		}
		g := graph.FromEdges(edges[:100])
		e, err := New(g, 0, Config{Alpha: 0.2, Walks: 500, Seed: seed, Workers: 2})
		if err != nil {
			return false
		}
		for i, ins := range edges[100:120] {
			if i%3 == 0 && g.NumEdges() > 0 {
				del := g.Edges()[0]
				if _, _, err := e.ApplyDelete(del.U, del.V); err != nil {
					return false
				}
			}
			if _, _, err := e.ApplyInsert(ins.U, ins.V); err != nil {
				return false
			}
		}
		if err := e.CheckConsistency(); err != nil {
			t.Log(err)
			return false
		}
		var sum float64
		for _, x := range e.Estimates() {
			sum += x
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
