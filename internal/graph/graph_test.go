package graph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddRemoveEdgeBasics(t *testing.T) {
	g := New(0)
	added, err := g.AddEdge(0, 1)
	if err != nil || !added {
		t.Fatalf("AddEdge(0,1) = %v, %v", added, err)
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("edge direction wrong")
	}
	if g.NumVertices() != 2 || g.NumEdges() != 1 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	// Duplicate insert is a no-op.
	added, err = g.AddEdge(0, 1)
	if err != nil || added {
		t.Fatalf("duplicate AddEdge = %v, %v", added, err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("m after duplicate = %d", g.NumEdges())
	}
	if err := g.RemoveEdge(0, 1); err != nil {
		t.Fatalf("RemoveEdge: %v", err)
	}
	if g.HasEdge(0, 1) || g.NumEdges() != 0 {
		t.Fatal("edge still present after removal")
	}
	if err := g.RemoveEdge(0, 1); !errors.Is(err, ErrEdgeNotFound) {
		t.Fatalf("RemoveEdge missing = %v, want ErrEdgeNotFound", err)
	}

	// A refused mutation changes nothing — not n, not the delta accounting —
	// whether the duplicate sits in the base segment or in an overlay, and a
	// membership probe never grows the graph.
	shape := func(g *Graph) [4]int {
		return [4]int{g.NumVertices(), g.NumEdges(), g.DeltaEdges(), g.OverlaidVertices()}
	}
	overlay := New(0)
	mustAdd(t, overlay, 0, 1)
	mustAdd(t, overlay, 1, 2)
	for name, g := range map[string]*Graph{
		"base":    FromEdges([]Edge{{0, 1}, {1, 2}, {2, 0}}),
		"overlay": overlay,
	} {
		before := shape(g)
		if added, err := g.AddEdge(0, 1); err != nil || added {
			t.Fatalf("%s: duplicate AddEdge = %v, %v", name, added, err)
		}
		for _, e := range []Edge{{1, 0}, {7, 9}, {-1, 0}} {
			if err := g.RemoveEdge(e.U, e.V); !errors.Is(err, ErrEdgeNotFound) {
				t.Fatalf("%s: RemoveEdge%v = %v, want ErrEdgeNotFound", name, e, err)
			}
		}
		for _, e := range []Edge{{-1, 0}, {0, -1}, {-3, -3}, {7, 9}, {0, 9}, {9, 0}} {
			if g.HasEdge(e.U, e.V) {
				t.Fatalf("%s: HasEdge%v = true", name, e)
			}
		}
		if after := shape(g); after != before {
			t.Fatalf("%s: refused mutations moved (n, m, delta, overlaid) %v -> %v", name, before, after)
		}
		if err := g.CheckConsistency(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestAddEdgeNegativeVertex(t *testing.T) {
	g := New(0)
	if _, err := g.AddEdge(-1, 2); !errors.Is(err, ErrNegativeVertex) {
		t.Fatalf("err = %v, want ErrNegativeVertex", err)
	}
	if _, err := g.AddEdge(2, -1); !errors.Is(err, ErrNegativeVertex) {
		t.Fatalf("err = %v, want ErrNegativeVertex", err)
	}
}

func TestDegreesAndNeighbors(t *testing.T) {
	g := New(0)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 0, 2)
	mustAdd(t, g, 3, 0)
	if g.OutDegree(0) != 2 || g.InDegree(0) != 1 {
		t.Fatalf("degrees of 0: out=%d in=%d", g.OutDegree(0), g.InDegree(0))
	}
	if g.OutDegree(100) != 0 || g.InDegree(-1) != 0 {
		t.Fatal("out-of-range degrees must be 0")
	}
	if len(g.OutNeighbors(0)) != 2 || len(g.InNeighbors(0)) != 1 {
		t.Fatal("neighbor slices wrong")
	}
	if g.OutNeighbors(100) != nil || g.InNeighbors(-5) != nil {
		t.Fatal("out-of-range neighbors must be nil")
	}
}

func TestFromEdgesAndEdges(t *testing.T) {
	edges := []Edge{{0, 1}, {1, 2}, {2, 0}, {0, 1}}
	g := FromEdges(edges)
	if g.NumEdges() != 3 {
		t.Fatalf("m = %d, want 3 (dup ignored)", g.NumEdges())
	}
	got := g.Edges()
	if len(got) != 3 {
		t.Fatalf("Edges() len = %d", len(got))
	}
	seen := make(map[Edge]bool)
	for _, e := range got {
		seen[e] = true
	}
	for _, e := range []Edge{{0, 1}, {1, 2}, {2, 0}} {
		if !seen[e] {
			t.Fatalf("missing edge %v", e)
		}
	}
}

// TestCloneIndependence mutates both copies after the clone — the clone
// gains an edge, the original loses a base edge — so neither the overlays
// nor the degree array may be shared.
func TestCloneIndependence(t *testing.T) {
	g := FromEdges([]Edge{{0, 1}, {1, 2}})
	c := g.Clone()
	mustAdd(t, c, 2, 0)
	if err := g.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(2, 0) || !c.HasEdge(0, 1) {
		t.Fatal("clone shares state with original")
	}
	if g.OutDegree(2) != 0 || g.OutDegree(0) != 0 || c.OutDegree(2) != 1 || c.OutDegree(0) != 1 {
		t.Fatalf("degrees leak between copies: original dout(0)=%d dout(2)=%d, clone dout(0)=%d dout(2)=%d",
			g.OutDegree(0), g.OutDegree(2), c.OutDegree(0), c.OutDegree(2))
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestDegreeArrayFollowsGrowth grows a graph past its base segment, first
// bare (EnsureVertex) and then by edges from and to the new vertices, and
// checks the degree array covers and counts every slot at each step.
func TestDegreeArrayFollowsGrowth(t *testing.T) {
	g := FromEdges([]Edge{{0, 1}, {1, 2}, {2, 0}, {2, 1}})
	g.EnsureVertex(9)
	if g.NumVertices() != 10 || g.OutDegree(9) != 0 || g.OutDegree(2) != 2 {
		t.Fatalf("after EnsureVertex: n=%d dout(9)=%d dout(2)=%d", g.NumVertices(), g.OutDegree(9), g.OutDegree(2))
	}
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, g, 9, 0)
	mustAdd(t, g, 9, 2)
	mustAdd(t, g, 2, 40) // grows again, through AddEdge
	if err := g.RemoveEdge(2, 0); err != nil {
		t.Fatal(err)
	}
	for u, want := range map[VertexID]int{0: 1, 1: 1, 2: 2, 9: 2, 40: 0, 39: 0} {
		if got := g.OutDegree(u); got != want {
			t.Fatalf("dout(%d) = %d, want %d", u, got, want)
		}
	}
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestTopDegreeVertices(t *testing.T) {
	g := New(5)
	// degrees: 0 -> 3, 1 -> 2, 2 -> 0, 3 -> 1, 4 -> 0
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 0, 2)
	mustAdd(t, g, 0, 3)
	mustAdd(t, g, 1, 2)
	mustAdd(t, g, 1, 3)
	mustAdd(t, g, 3, 4)
	top := g.TopDegreeVertices(3)
	want := []VertexID{0, 1, 3}
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("top = %v, want %v", top, want)
		}
	}
	if got := g.TopDegreeVertices(100); len(got) != 5 {
		t.Fatalf("k>n should clamp: %d", len(got))
	}
	if got := g.TopDegreeVertices(0); got != nil {
		t.Fatalf("k=0 should be nil: %v", got)
	}
}

func TestSnapshotMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := New(50)
	for i := 0; i < 400; i++ {
		u := VertexID(rng.Intn(50))
		v := VertexID(rng.Intn(50))
		_, _ = g.AddEdge(u, v)
	}
	c := g.Snapshot()
	if c.NumVertices() != g.NumVertices() || c.NumEdges() != g.NumEdges() {
		t.Fatalf("snapshot sizes differ: %d/%d vs %d/%d",
			c.NumVertices(), c.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for u := VertexID(0); int(u) < g.NumVertices(); u++ {
		if len(c.OutNeighbors(u)) != g.OutDegree(u) || c.InDegree(u) != g.InDegree(u) {
			t.Fatalf("degree mismatch at %d", u)
		}
		outSet := make(map[VertexID]bool)
		for _, v := range g.OutNeighbors(u) {
			outSet[v] = true
		}
		for _, v := range c.OutNeighbors(u) {
			if !outSet[v] {
				t.Fatalf("snapshot out edge (%d,%d) not in graph", u, v)
			}
		}
		inSet := make(map[VertexID]bool)
		for _, w := range g.InNeighbors(u) {
			inSet[w] = true
		}
		for _, w := range c.InNeighbors(u) {
			if !inSet[w] {
				t.Fatalf("snapshot in edge (%d,%d) not in graph", w, u)
			}
		}
	}
}

// Property: a random interleaving of inserts, deletes, Views and
// compactions agrees with a reference edge set on every AddEdge result,
// RemoveEdge error and HasEdge answer — including on hub vertices, whose
// lists are long enough that membership scans the other endpoint's list —
// and always leaves the graph internally consistent, with in/out degree
// sums both equal to the edge count.
func TestRandomMutationConsistency(t *testing.T) {
	const n, ops, hubDegree = 400, 6000, 200
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New(10)
		ref := make(map[Edge]bool)
		// Vertices 0 and 1 are hubs: a quarter of the updates leave one, a
		// quarter enter one.
		pick := func() (VertexID, VertexID) {
			hub, other := VertexID(rng.Intn(2)), VertexID(rng.Intn(n))
			switch rng.Intn(4) {
			case 0:
				return hub, other
			case 1:
				return other, hub
			}
			return VertexID(rng.Intn(n)), other
		}
		for i := 0; i < ops; i++ {
			if i%500 == 0 {
				if err := g.CheckConsistency(); err != nil {
					t.Logf("after %d updates: %v", i, err)
					return false
				}
			}
			switch rng.Intn(50) {
			case 0:
				g.View()
			case 1:
				g.Compact()
				if err := g.CheckConsistency(); err != nil {
					t.Logf("after compaction: %v", err)
					return false
				}
			}
			u, v := pick()
			e := Edge{u, v}
			if got := g.HasEdge(u, v); got != ref[e] {
				t.Logf("HasEdge%v = %v, reference %v", e, got, ref[e])
				return false
			}
			if rng.Intn(4) == 0 {
				err := g.RemoveEdge(u, v)
				if ref[e] && err != nil || !ref[e] && !errors.Is(err, ErrEdgeNotFound) {
					t.Logf("RemoveEdge%v = %v, reference present %v", e, err, ref[e])
					return false
				}
				delete(ref, e)
			} else {
				added, err := g.AddEdge(u, v)
				if err != nil || added == ref[e] {
					t.Logf("AddEdge%v = %v, %v, reference present %v", e, added, err, ref[e])
					return false
				}
				ref[e] = true
			}
		}
		if g.OutDegree(0) < hubDegree || g.InDegree(1) < hubDegree {
			t.Logf("hubs too small: out(0)=%d in(1)=%d", g.OutDegree(0), g.InDegree(1))
			return false
		}
		if err := g.CheckConsistency(); err != nil {
			t.Logf("consistency: %v", err)
			return false
		}
		sumOut, sumIn := 0, 0
		for u := VertexID(0); int(u) < g.NumVertices(); u++ {
			sumOut += g.OutDegree(u)
			sumIn += g.InDegree(u)
		}
		return g.NumEdges() == len(ref) && sumOut == g.NumEdges() && sumIn == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func mustAdd(t *testing.T, g *Graph, u, v VertexID) {
	t.Helper()
	added, err := g.AddEdge(u, v)
	if err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
	}
	if !added {
		t.Fatalf("AddEdge(%d,%d): duplicate", u, v)
	}
}
