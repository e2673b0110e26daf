package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// transposeCSR is the reference a merge must reproduce: FromEdges over the
// graph's edge list, which builds its out rows by counting sort and derives
// its in rows by the newCSR transpose, with trailing vertices that have no
// edges padded on as empty rows.
func transposeCSR(g *Graph) *CSR {
	c := FromEdges(g.Edges()).base
	pad := func(off []int32) []int32 {
		for len(off) < g.NumVertices()+1 {
			off = append(off, off[len(off)-1])
		}
		return off
	}
	out, in := c.dir[dirOut], c.dir[dirIn]
	return &CSR{n: g.NumVertices(), dir: [2]csrRows{
		{pad(out.offsets), out.targets},
		{pad(in.offsets), in.targets},
	}}
}

// sameArrays reports the first array in which got and want differ.
func sameArrays(got, want *CSR) error {
	switch {
	case got.n != want.n:
		return fmt.Errorf("n = %d, want %d", got.n, want.n)
	case !slices.Equal(got.dir[dirOut].offsets, want.dir[dirOut].offsets):
		return fmt.Errorf("out offsets differ")
	case !slices.Equal(got.dir[dirOut].targets, want.dir[dirOut].targets):
		return fmt.Errorf("out targets differ")
	case !slices.Equal(got.dir[dirIn].offsets, want.dir[dirIn].offsets):
		return fmt.Errorf("in offsets differ")
	case !slices.Equal(got.dir[dirIn].targets, want.dir[dirIn].targets):
		return fmt.Errorf("in targets differ")
	}
	return nil
}

// rmatID draws a vertex id in [0, n) with R-MAT skew: each bit of the id
// takes the low half with probability 0.76 (the Graph500 a+b), so small ids
// are hubs and their lists are long when copy-on-first-touch copies them.
func rmatID(rng *rand.Rand, n int) VertexID {
	id, span := 0, 1
	for span < n {
		span *= 2
	}
	for span > 1 {
		span /= 2
		if rng.Float64() >= 0.76 {
			id += span
		}
	}
	return VertexID(id % n)
}

// skewedBatch applies ops random updates drawn with R-MAT skew: a third are
// deletes of an existing out edge of a skewed source, the rest inserts, and
// one in 50 names a vertex up to 8 past the current size (growth).
func skewedBatch(t *testing.T, g *Graph, rng *rand.Rand, ops int) {
	t.Helper()
	for i := 0; i < ops; i++ {
		n := g.NumVertices()
		u, v := rmatID(rng, n), rmatID(rng, n)
		if rng.Intn(50) == 0 {
			v = VertexID(n + rng.Intn(8))
		}
		if out := g.OutNeighbors(u); rng.Intn(3) == 0 && len(out) > 0 {
			if err := g.RemoveEdge(u, out[rng.Intn(len(out))]); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if u != v {
			if _, err := g.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// requireMerge checks the merge of g's current state, Snapshot, against the
// transpose-built reference.
func requireMerge(t *testing.T, g *Graph, at string) {
	t.Helper()
	if err := sameArrays(g.Snapshot(), transposeCSR(g)); err != nil {
		t.Fatalf("%s: Snapshot: %v", at, err)
	}
}

// TestMergeMatchesTranspose is the merge differential: random R-MAT-skewed
// insert/delete streams with growth and View seals in between, and a
// background compaction per round whose freeze is followed by more writes,
// all produce CSRs identical array for array to the transpose-built one.
func TestMergeMatchesTranspose(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New(300)
		skewedBatch(t, g, rng, 3000)
		g.Compact()
		for round := 0; round < 40; round++ {
			at := fmt.Sprintf("seed %d round %d", seed, round)
			skewedBatch(t, g, rng, 1+rng.Intn(60))
			if rng.Intn(2) == 0 {
				g.View() // seal: the next writes clone the segments
			}
			if rng.Intn(5) == 0 {
				g.EnsureVertex(VertexID(g.NumVertices() + rng.Intn(4))) // ids with no edges
			}
			requireMerge(t, g, at)

			c := g.BeginCompaction()
			want := transposeCSR(g)
			skewedBatch(t, g, rng, rng.Intn(30)) // post-freeze segments
			after := transposeCSR(g)
			base := c.Build()
			if err := sameArrays(base, want); err != nil {
				t.Fatalf("%s: Build: %v", at, err)
			}
			if !g.Install(c, base) {
				t.Fatalf("%s: install rejected a current compaction", at)
			}
			if err := sameArrays(g.Snapshot(), after); err != nil {
				t.Fatalf("%s: Snapshot after Install: %v", at, err)
			}
			if err := g.CheckConsistency(); err != nil {
				t.Fatalf("%s: %v", at, err)
			}
		}
	}
}

// TestMergeEdgeCases pins the shapes a run-copy merge could get wrong one at
// a time: a vertex overlaid in one direction only, a row emptied by deletes,
// overlays on the first and last base vertex, and growth past the base with
// ids that have edges, ids that were only ensured, and an overlaid vertex
// beyond the base followed by edgeless ones. Last, growth with no overlay at
// all: the inline merge must still swap in a base that covers every vertex.
func TestMergeEdgeCases(t *testing.T) {
	g := FromEdges([]Edge{{0, 1}, {0, 2}, {1, 2}, {2, 0}, {3, 1}, {3, 4}, {4, 0}})
	requireMerge(t, g, "no overlays")

	mustAdd(t, g, 1, 3) // out overlay on 1, in overlay on 3: one direction each
	if g.ov[dirIn][1] != nil || g.ov[dirOut][3] != nil {
		t.Fatal("setup: expected one-direction overlays on 1 and 3")
	}
	requireMerge(t, g, "one-direction overlays")

	for _, v := range []VertexID{1, 2} { // empty 0's out row
		if err := g.RemoveEdge(0, v); err != nil {
			t.Fatal(err)
		}
	}
	requireMerge(t, g, "emptied row at the first vertex")
	mustAdd(t, g, 4, 2) // overlay on the last base vertex
	requireMerge(t, g, "overlay on the last base vertex")

	g.Compact()
	g.EnsureVertex(7)    // ids 5..7 ensured, no edges
	mustAdd(t, g, 9, 6)  // growth by an edge: 8 edgeless, 9 and 6 overlaid
	g.EnsureVertex(12)   // edgeless tail after an overlaid id past the base
	mustAdd(t, g, 2, 10) // a base vertex pointing past the base
	requireMerge(t, g, "growth past the base")
	if err := g.RemoveEdge(9, 6); err != nil {
		t.Fatal(err)
	}
	requireMerge(t, g, "emptied rows past the base")

	// Post-freeze segments survive the install: a vertex first touched after
	// the freeze and a frozen one written again both shadow the new base.
	c := g.BeginCompaction()
	mustAdd(t, g, 11, 12)
	mustAdd(t, g, 2, 11)
	want := transposeCSR(g)
	if !g.Install(c, c.Build()) {
		t.Fatal("install rejected a current compaction")
	}
	if g.ov[dirOut][11] == nil || g.ov[dirOut][2] == nil || g.ov[dirIn][12] == nil {
		t.Fatal("install dropped a segment written after the freeze")
	}
	if err := sameArrays(g.Snapshot(), want); err != nil {
		t.Fatalf("after install: %v", err)
	}
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}

	g.Compact()
	g.EnsureVertex(VertexID(g.NumVertices() + 2)) // grown, not overlaid
	epoch := g.Epoch()
	g.Compact()
	if g.Epoch() != epoch+1 {
		t.Fatalf("Compact of a grown graph left the epoch at %d, want %d", g.Epoch(), epoch+1)
	}
	base := g.CompactedSnapshot()
	if base.NumVertices() != g.NumVertices() {
		t.Fatalf("compacted base has %d vertices, graph %d", base.NumVertices(), g.NumVertices())
	}
	if g.CompactedSnapshot() != base || g.Epoch() != epoch+1 {
		t.Fatal("CompactedSnapshot of a compacted graph swapped the base again")
	}
	requireMerge(t, g, "growth with no overlay")
}

// TestMergeConcurrentBuild runs each Build on its own goroutine while the
// owner keeps mutating — the background compactor's shape. Under -race it
// checks the merge reads only frozen segments; the built base must equal
// the transpose of the graph at the freeze, and install must keep the
// writes that raced it.
func TestMergeConcurrentBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := New(500)
	skewedBatch(t, g, rng, 4000)
	for round := 0; round < 12; round++ {
		c := g.BeginCompaction()
		want := transposeCSR(g)
		built := make(chan *CSR)
		go func() { built <- c.Build() }()
		for i := 0; i < 5; i++ {
			skewedBatch(t, g, rng, 40)
			g.View()
		}
		after := transposeCSR(g)
		base := <-built
		if err := sameArrays(base, want); err != nil {
			t.Fatalf("round %d: Build: %v", round, err)
		}
		if !g.Install(c, base) {
			t.Fatalf("round %d: install rejected a current compaction", round)
		}
		if err := sameArrays(g.Snapshot(), after); err != nil {
			t.Fatalf("round %d: after install: %v", round, err)
		}
	}
}
