package stream

import (
	"testing"
	"testing/quick"

	"dynppr/internal/gen"
	"dynppr/internal/graph"
)

// Inserts returns the number of insert updates in the batch.
func (b Batch) Inserts() int {
	n := 0
	for _, u := range b {
		if u.Op == Insert {
			n++
		}
	}
	return n
}

func testEdges(n int) []graph.Edge {
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.VertexID(i), V: graph.VertexID(i + 1)}
	}
	return edges
}

func TestOpString(t *testing.T) {
	if Insert.String() != "insert" || Delete.String() != "delete" {
		t.Fatal("Op.String wrong")
	}
	if Op(7).String() == "" {
		t.Fatal("unknown op should still format")
	}
}

func TestBatchCountsAndApply(t *testing.T) {
	g := graph.New(0)
	b := Batch{
		{U: 0, V: 1, Op: Insert},
		{U: 1, V: 2, Op: Insert},
		{U: 0, V: 1, Op: Insert}, // duplicate, skipped
		{U: 5, V: 6, Op: Delete}, // missing, skipped
	}
	applied := b.Apply(g)
	if len(applied) != 2 || applied[0] != b[0] || applied[1] != b[1] {
		t.Fatalf("applied = %v, want the first two inserts", applied)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || g.NumEdges() != 2 {
		t.Fatal("graph state wrong after Apply")
	}
	// Now delete one of them.
	applied = Batch{{U: 0, V: 1, Op: Delete}}.Apply(g)
	if len(applied) != 1 || g.HasEdge(0, 1) {
		t.Fatal("delete not applied")
	}
}

func TestStreamIsPermutation(t *testing.T) {
	edges := testEdges(100)
	s := NewStream(edges, 1)
	if s.Len() != 100 {
		t.Fatalf("Len = %d", s.Len())
	}
	seen := make(map[graph.Edge]int)
	for _, e := range s.edges {
		seen[e]++
	}
	for _, e := range edges {
		if seen[e] != 1 {
			t.Fatalf("edge %v appears %d times", e, seen[e])
		}
	}
	// Different seeds give different permutations (overwhelmingly likely).
	s2 := NewStream(edges, 2)
	same := true
	for i := range edges {
		if s.edges[i] != s2.edges[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two seeds produced identical permutations")
	}
	// Same seed reproduces the permutation.
	s3 := NewStream(edges, 1)
	for i := range edges {
		if s.edges[i] != s3.edges[i] {
			t.Fatal("same seed should reproduce the permutation")
		}
	}
}

func TestPrefixBounds(t *testing.T) {
	s := NewStream(testEdges(10), 3)
	if len(s.Prefix(-1)) != 0 {
		t.Fatal("negative prefix should be empty")
	}
	if len(s.Prefix(5)) != 5 {
		t.Fatal("prefix 5 should have 5 edges")
	}
	if len(s.Prefix(100)) != 10 {
		t.Fatal("oversized prefix should clamp")
	}
}

func TestSlidingWindowSlide(t *testing.T) {
	edges := testEdges(100)
	s := NewStream(edges, 7)
	w, initial := NewSlidingWindow(s, 0.1)
	if len(initial) != 10 || w.Size() != 10 {
		t.Fatalf("initial window = %d edges, size %d", len(initial), w.Size())
	}
	b := w.Slide(5)
	if len(b) != 10 || b.Inserts() != 5 {
		t.Fatalf("slide batch: len=%d ins=%d", len(b), b.Inserts())
	}
	if w.Size() != 10 {
		t.Fatalf("window size must stay constant, got %d", w.Size())
	}
	// The inserted edges must be the next 5 of the stream and the deleted the
	// oldest 5 of the initial window.
	for i := 0; i < 5; i++ {
		wantIns := s.edges[10+i]
		if b[i].U != wantIns.U || b[i].V != wantIns.V || b[i].Op != Insert {
			t.Fatalf("insert %d = %+v, want %v", i, b[i], wantIns)
		}
		wantDel := s.edges[i]
		if b[5+i].U != wantDel.U || b[5+i].V != wantDel.V || b[5+i].Op != Delete {
			t.Fatalf("delete %d = %+v, want %v", i, b[5+i], wantDel)
		}
	}
}

func TestSlidingWindowExhaustion(t *testing.T) {
	s := NewStream(testEdges(20), 1)
	w, _ := NewSlidingWindow(s, 0.5)
	if w.Remaining() != 10 {
		t.Fatalf("remaining = %d", w.Remaining())
	}
	b := w.Slide(7)
	if b.Inserts() != 7 {
		t.Fatalf("first slide inserts = %d", b.Inserts())
	}
	b = w.Slide(7) // only 3 remain
	if len(b) != 6 || b.Inserts() != 3 {
		t.Fatalf("truncated slide: len=%d ins=%d", len(b), b.Inserts())
	}
	if b = w.Slide(7); b != nil {
		t.Fatalf("exhausted stream should return nil batch, got %d updates", len(b))
	}
	if b = w.Slide(0); b != nil {
		t.Fatal("slide(0) should return nil")
	}
}

func TestNewSlidingWindowFractionClamping(t *testing.T) {
	s := NewStream(testEdges(10), 1)
	_, init := NewSlidingWindow(s, -1)
	if len(init) != 0 {
		t.Fatal("negative fraction should clamp to 0")
	}
	_, init = NewSlidingWindow(s, 2)
	if len(init) != 10 {
		t.Fatal("fraction > 1 should clamp to 1")
	}
}

// Property: replaying a sliding window keeps the graph equal to the set of
// edges currently in the window (when stream edges are distinct).
func TestSlidingWindowGraphMatchesWindow(t *testing.T) {
	f := func(seed int64, slidesRaw, kRaw uint8) bool {
		edges, err := gen.EdgeList(gen.Config{Model: gen.ErdosRenyi, Vertices: 60, Edges: 300, Seed: seed})
		if err != nil {
			return false
		}
		// Dedup so "window contents == graph edges" is exact.
		uniq := make([]graph.Edge, 0, len(edges))
		seen := make(map[graph.Edge]bool)
		for _, e := range edges {
			if !seen[e] {
				seen[e] = true
				uniq = append(uniq, e)
			}
		}
		s := NewStream(uniq, seed+1)
		w, initial := NewSlidingWindow(s, 0.2)
		g := graph.FromEdges(initial)
		slides := int(slidesRaw)%5 + 1
		k := int(kRaw)%10 + 1
		for i := 0; i < slides; i++ {
			batch := w.Slide(k)
			batch.Apply(g)
		}
		if err := g.CheckConsistency(); err != nil {
			return false
		}
		want := w.stream.edges[w.head:w.tail]
		if g.NumEdges() != len(want) {
			return false
		}
		for _, e := range want {
			if !g.HasEdge(e.U, e.V) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
