package montecarlo

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dynppr/internal/gen"
	"dynppr/internal/graph"
)

// buildAndChurn constructs an estimator over an R-MAT graph and applies a
// fixed insert/delete sequence, returning the final estimate vector. Every
// random choice is driven by fixed seeds, so two invocations must agree
// bit-for-bit — which they only do if affected-walk rerouting enumerates
// walks in a deterministic order (the inverted index is a map, and rng seeds
// are assigned positionally to the affected list).
func buildAndChurn(t *testing.T, workers int) []float64 {
	t.Helper()
	g, err := gen.Generate(gen.Config{Model: gen.RMAT, Vertices: 80, Edges: 500, Seed: 5})
	if err != nil {
		t.Fatalf("gen.Generate: %v", err)
	}
	e, err := New(g, 0, Config{Alpha: 0.2, Walks: 3000, Seed: 9, Workers: workers})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	updates := rand.New(rand.NewSource(17))
	for i := 0; i < 40; i++ {
		u := graph.VertexID(updates.Intn(80))
		v := graph.VertexID(updates.Intn(80))
		if i%3 == 2 {
			if _, _, err := e.ApplyDelete(u, v); err != nil {
				t.Fatalf("ApplyDelete(%d,%d): %v", u, v, err)
			}
		} else if _, _, err := e.ApplyInsert(u, v); err != nil {
			t.Fatalf("ApplyInsert(%d,%d): %v", u, v, err)
		}
	}
	if err := e.CheckConsistency(); err != nil {
		t.Fatalf("CheckConsistency: %v", err)
	}
	return e.Estimates()
}

// TestRerouteDeterministicAcrossRuns is the regression test for the
// map-iteration-order bug: with a fixed seed, rebuilding the estimator and
// replaying the same update sequence must produce bit-identical estimates,
// at both serial and parallel walk regeneration.
func TestRerouteDeterministicAcrossRuns(t *testing.T) {
	for _, workers := range []int{1, 4} {
		a := buildAndChurn(t, workers)
		b := buildAndChurn(t, workers)
		if len(a) != len(b) {
			t.Fatalf("workers=%d: vector lengths differ: %d vs %d", workers, len(a), len(b))
		}
		for v := range a {
			if math.Float64bits(a[v]) != math.Float64bits(b[v]) {
				t.Fatalf("workers=%d: estimates diverge at vertex %d: %g vs %g", workers, v, a[v], b[v])
			}
		}
	}
}

// TestAffectedWalksSorted pins the ordering contract reroute depends on.
func TestAffectedWalksSorted(t *testing.T) {
	g, err := gen.Generate(gen.Config{Model: gen.RMAT, Vertices: 40, Edges: 300, Seed: 11})
	if err != nil {
		t.Fatalf("gen.Generate: %v", err)
	}
	e, err := New(g, 0, Config{Alpha: 0.15, Walks: 500, Seed: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for v := graph.VertexID(0); v < 40; v++ {
		ids := e.AffectedWalks(v)
		if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
			t.Fatalf("AffectedWalks(%d) not sorted: %v", v, ids)
		}
	}
}
