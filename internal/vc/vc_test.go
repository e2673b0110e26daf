package vc

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"dynppr/internal/gen"
	"dynppr/internal/graph"
	"dynppr/internal/power"
	"dynppr/internal/push"
)

// Contains reports membership of v.
func (s *VertexSubset) Contains(v graph.VertexID) bool {
	if int(v) >= s.n || v < 0 {
		return false
	}
	if s.isDense {
		return s.dense[v]
	}
	for _, x := range s.sparse {
		if x == v {
			return true
		}
	}
	return false
}

func TestVertexSubsetSparse(t *testing.T) {
	s := NewSparseSubset(10, []graph.VertexID{3, 5, 3, 7})
	if s.Size() == 0 {
		t.Fatal("subset should not be empty")
	}
	if s.Size() != 3 {
		t.Fatalf("Size = %d, want 3 (duplicates collapse)", s.Size())
	}
	members := s.Members()
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	want := []graph.VertexID{3, 5, 7}
	for i := range want {
		if members[i] != want[i] {
			t.Fatalf("Members = %v", members)
		}
	}
	if !s.Contains(5) || s.Contains(4) || s.Contains(100) || s.Contains(-1) {
		t.Fatal("Contains wrong")
	}
	if e := NewSparseSubset(10, nil); e.Size() != 0 || len(e.Members()) != 0 {
		t.Fatal("sparse subset of no ids should be empty")
	}
}

func TestVertexSubsetDense(t *testing.T) {
	s := &VertexSubset{n: 8, dense: []bool{true, false, true, false, true, false, true, false}, isDense: true}
	if s.Size() != 4 {
		t.Fatalf("Size = %d, want 4", s.Size())
	}
	if !s.Contains(0) || s.Contains(1) || s.Contains(9) {
		t.Fatal("Contains wrong for dense subset")
	}
	if len(s.Members()) != 4 {
		t.Fatal("Members wrong for dense subset")
	}
}

func TestVertexMap(t *testing.T) {
	g := graph.FromEdges([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	fw := NewFramework(g, 2)
	if fw.g != g {
		t.Fatal("the framework must wrap the given graph")
	}
	in := NewSparseSubset(g.NumVertices(), []graph.VertexID{0, 1, 2, 3})
	var visited int64
	out := fw.VertexMap(in, func(v graph.VertexID) bool {
		atomic.AddInt64(&visited, 1)
		return v >= 2
	})
	if visited != 4 {
		t.Fatalf("visited %d vertices, want 4", visited)
	}
	if out.Size() != 2 || !out.Contains(2) || !out.Contains(3) {
		t.Fatalf("VertexMap output wrong: %v", out.Members())
	}
}

// EdgeMap must apply the update exactly once per in-edge of the frontier,
// in both sparse and dense representations.
func TestEdgeMapCoversInEdgesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.New(40)
	for i := 0; i < 300; i++ {
		_, _ = g.AddEdge(graph.VertexID(rng.Intn(40)), graph.VertexID(rng.Intn(40)))
	}
	fw := NewFramework(g, 4)

	run := func(frontierIDs []graph.VertexID, forceDense bool) map[[2]graph.VertexID]int64 {
		if forceDense {
			fw.denseDivisor = 1 // always switch to the dense representation
		} else {
			fw.denseDivisor = 1 << 30 // never switch: stay sparse
		}
		counts := make(map[[2]graph.VertexID]int64)
		var mu sync.Mutex
		frontier := NewSparseSubset(g.NumVertices(), frontierIDs)
		fw.EdgeMap(frontier, func(u, v graph.VertexID) bool {
			mu.Lock()
			counts[[2]graph.VertexID{u, v}]++
			mu.Unlock()
			return false
		}, func(graph.VertexID) bool { return true })
		return counts
	}

	frontier := []graph.VertexID{1, 5, 9, 13, 17, 21}
	for _, dense := range []bool{false, true} {
		counts := run(frontier, dense)
		// Expected: one call per (u, v) with u in frontier, v in Nin(u).
		want := 0
		for _, u := range frontier {
			want += g.InDegree(u)
		}
		got := 0
		for pair, c := range counts {
			if c != 1 {
				t.Fatalf("dense=%v: edge %v updated %d times", dense, pair, c)
			}
			u, v := pair[0], pair[1]
			if !g.HasEdge(v, u) {
				t.Fatalf("dense=%v: update on non-edge %v", dense, pair)
			}
			got++
		}
		if got != want {
			t.Fatalf("dense=%v: %d updates, want %d", dense, got, want)
		}
	}
}

// EdgeMap output must contain exactly the vertices for which update returned
// true, without duplicates.
func TestEdgeMapFrontierGeneration(t *testing.T) {
	// Star: many frontier vertices share in-neighbor 0.
	edges := []graph.Edge{}
	for i := 1; i <= 6; i++ {
		edges = append(edges, graph.Edge{U: 0, V: graph.VertexID(i)})
	}
	g := graph.FromEdges(edges)
	fw := NewFramework(g, 4)
	frontier := NewSparseSubset(g.NumVertices(), []graph.VertexID{1, 2, 3, 4, 5, 6})
	out := fw.EdgeMap(frontier, func(u, v graph.VertexID) bool { return true },
		func(graph.VertexID) bool { return true })
	if out.Size() != 1 || !out.Contains(0) {
		t.Fatalf("EdgeMap frontier = %v, want just vertex 0", out.Members())
	}
}

func TestPPREngineName(t *testing.T) {
	if NewPPREngine(4).Name() != "ligra-w4" {
		t.Fatal("engine name wrong")
	}
}

// The dense/sparse switch must not change results: force each representation
// and compare against the specialized sequential engine.
func TestPPREngineDenseSparseAgree(t *testing.T) {
	g, err := gen.Generate(gen.Config{Model: gen.BarabasiAlbert, Vertices: 150, Edges: 2000, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	source := g.TopDegreeVertices(1)[0]
	cfg := push.Config{Alpha: 0.15, Epsilon: 1e-4}

	reference, err := push.NewState(g.Clone(), source, cfg)
	if err != nil {
		t.Fatal(err)
	}
	push.NewSequential().Run(reference, []graph.VertexID{source})

	st, err := push.NewState(g.Clone(), source, cfg)
	if err != nil {
		t.Fatal(err)
	}
	NewPPREngine(4).Run(st, []graph.VertexID{source})

	// Both are ε-approximations of the same vector, so they differ by at most 2ε.
	if d := power.MaxAbsDiff(reference.Estimates(), st.Estimates()); d > 2*cfg.Epsilon {
		t.Fatalf("vertex-centric result differs from sequential by %v", d)
	}
}
