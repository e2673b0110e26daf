package graph_test

import (
	"math/rand"
	"slices"
	"testing"

	"dynppr/internal/gen"
	"dynppr/internal/graph"
)

// TestAdjacencyOrderCanonical pins that arrival order never reaches the
// lists: FromEdges over two shuffles of one R-MAT edge list — duplicates and
// negative ids mixed in — and an AddEdge loop in a third order followed by a
// compaction all yield identical CSR arrays and in lists.
func TestAdjacencyOrderCanonical(t *testing.T) {
	edges, err := gen.EdgeList(gen.Config{Model: gen.RMAT, Vertices: 1000, Edges: 8000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	edges = append(edges, edges[:500]...)
	edges = append(edges, graph.Edge{U: -1, V: 3}, graph.Edge{U: 5, V: -2}, graph.Edge{U: -4, V: -4})
	shuffled := func(seed int64) []graph.Edge {
		s := slices.Clone(edges)
		rand.New(rand.NewSource(seed)).Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		return s
	}

	want := graph.FromEdges(shuffled(1))
	wantOff, wantTgt := want.CompactedSnapshot().RawOut()
	loop := graph.New(0)
	for _, e := range shuffled(3) {
		loop.AddEdge(e.U, e.V) // duplicates and negative ids leave the graph unchanged
	}
	loop.Compact()
	for name, g := range map[string]*graph.Graph{"second shuffle": graph.FromEdges(shuffled(2)), "AddEdge loop": loop} {
		off, tgt := g.CompactedSnapshot().RawOut()
		if !slices.Equal(off, wantOff) || !slices.Equal(tgt, wantTgt) {
			t.Fatalf("%s: out arrays differ from the first shuffle's", name)
		}
		for v := graph.VertexID(0); int(v) < want.NumVertices(); v++ {
			if !slices.Equal(g.InNeighbors(v), want.InNeighbors(v)) {
				t.Fatalf("%s: in list of %d is %v, want %v", name, v, g.InNeighbors(v), want.InNeighbors(v))
			}
		}
		if err := g.CheckConsistency(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
