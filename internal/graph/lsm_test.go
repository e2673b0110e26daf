package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// adjacency is the neighbor-access surface *CSR, *View and *Graph share.
type adjacency interface {
	NumVertices() int
	OutNeighbors(u VertexID) []VertexID
	InNeighbors(v VertexID) []VertexID
}

// dumpAdjacency deep-copies the full adjacency of a *CSR, *View or *Graph,
// so recorded expectations cannot alias live overlay or base arrays.
func dumpAdjacency(a adjacency) (out, in [][]VertexID) {
	n := a.NumVertices()
	out = make([][]VertexID, n)
	in = make([][]VertexID, n)
	for v := 0; v < n; v++ {
		out[v] = append([]VertexID(nil), a.OutNeighbors(VertexID(v))...)
		in[v] = append([]VertexID(nil), a.InNeighbors(VertexID(v))...)
	}
	return out, in
}

// churn applies a deterministic mixed workload: appends, deletes, and new
// vertices, leaving a healthy pile of delta segments behind.
func churn(t *testing.T, g *Graph, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < ops; i++ {
		n := g.NumVertices()
		u := VertexID(rng.Intn(n + 1)) // occasionally a brand-new vertex
		v := VertexID(rng.Intn(n + 1))
		if u == v {
			continue
		}
		if rng.Intn(4) == 0 && g.HasEdge(u, v) {
			if err := g.RemoveEdge(u, v); err != nil {
				t.Fatal(err)
			}
		} else if _, err := g.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompactPreservesOrder is the storage engine's core contract: folding
// the delta segments into a fresh base changes nothing observable — vertex
// count, edge count, and the exact element order of every adjacency list,
// which downstream is the float summation order of every push.
func TestCompactPreservesOrder(t *testing.T) {
	g := New(8)
	churn(t, g, 42, 600)
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	wantOut, wantIn := dumpAdjacency(g)
	wantN, wantM := g.NumVertices(), g.NumEdges()
	epoch := g.Epoch()

	g.Compact()

	if g.Epoch() == epoch {
		t.Fatal("compaction must advance the epoch")
	}
	if g.DeltaEdges() != 0 || g.OverlaidVertices() != 0 {
		t.Fatalf("compacted graph still reports %d delta entries over %d vertices",
			g.DeltaEdges(), g.OverlaidVertices())
	}
	if g.NumVertices() != wantN || g.NumEdges() != wantM {
		t.Fatalf("compaction changed counts: %d/%d -> %d/%d", wantN, wantM, g.NumVertices(), g.NumEdges())
	}
	gotOut, gotIn := dumpAdjacency(g)
	if !reflect.DeepEqual(gotOut, wantOut) || !reflect.DeepEqual(gotIn, wantIn) {
		t.Fatal("compaction perturbed adjacency content or order")
	}
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Idempotent: a second compaction with no deltas must not rebuild.
	base := g.CompactedSnapshot()
	if g.CompactedSnapshot() != base {
		t.Fatal("compacting an already-compacted graph rebuilt the base")
	}
}

// TestViewStableUnderMutation pins the copy-on-write seal: a View taken at
// any point keeps returning exactly the adjacency it froze, no matter how
// the graph mutates afterwards — including inserts and deletes that shift
// elements of the very overlays the view holds, and a full compaction.
func TestViewStableUnderMutation(t *testing.T) {
	// Inserts whose sorted positions fall inside sealed overlays: out list
	// {1,3} of 0 gains 2, in list {1,3} of 5 gains 2. Both overlays have
	// spare capacity, so only the copy-on-write clone keeps the view intact.
	small := New(0)
	for _, e := range []Edge{{0, 1}, {0, 3}, {1, 5}, {3, 5}} {
		mustAdd(t, small, e.U, e.V)
	}
	sealed := small.View()
	mustAdd(t, small, 0, 2)
	mustAdd(t, small, 2, 5)
	if out, in := sealed.OutNeighbors(0), sealed.InNeighbors(5); !slices.Equal(out, []VertexID{1, 3}) ||
		!slices.Equal(in, []VertexID{1, 3}) {
		t.Fatalf("mid-list inserts leaked into a sealed view: out(0) %v, in(5) %v", out, in)
	}

	g := New(6)
	churn(t, g, 7, 300)
	view := g.View()
	frozen := g.BeginCompaction() // the merge input frozen at the same instant
	wantOut, wantIn := dumpAdjacency(view)

	churn(t, g, 8, 500)
	g.Compact()
	churn(t, g, 9, 200)

	gotOut, gotIn := dumpAdjacency(view)
	if !reflect.DeepEqual(gotOut, wantOut) || !reflect.DeepEqual(gotIn, wantIn) {
		t.Fatal("later mutations leaked into a sealed view")
	}
	// The merge of the same frozen state agrees with the view's accessors.
	csrOut, csrIn := dumpAdjacency(frozen.Build())
	if !reflect.DeepEqual(csrOut, wantOut) || !reflect.DeepEqual(csrIn, wantIn) {
		t.Fatal("a compaction frozen with the view built a different adjacency")
	}
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestBackgroundCompactionProtocol drives the three-step Begin/Build/Install
// dance with writes racing in between the freeze and the install — the exact
// shape the service's background compactor produces — and checks the merged
// result is logically invisible.
func TestBackgroundCompactionProtocol(t *testing.T) {
	g := New(10)
	churn(t, g, 13, 400)

	c := g.BeginCompaction()
	// Writes after the freeze: these segments must survive the install.
	churn(t, g, 14, 250)
	wantOut, wantIn := dumpAdjacency(g)
	wantM := g.NumEdges()

	base := c.Build()
	if !g.Install(c, base) {
		t.Fatal("install rejected a current compaction")
	}
	gotOut, gotIn := dumpAdjacency(g)
	if !reflect.DeepEqual(gotOut, wantOut) || !reflect.DeepEqual(gotIn, wantIn) {
		t.Fatal("install perturbed the logical graph")
	}
	if g.NumEdges() != wantM {
		t.Fatalf("install changed edge count: %d -> %d", wantM, g.NumEdges())
	}
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestInstallRejectsStaleCompaction covers the race the epoch guard exists
// for: an inline compaction (or checkpoint) swapping the base while a
// background build is in flight must invalidate that build.
func TestInstallRejectsStaleCompaction(t *testing.T) {
	g := New(10)
	churn(t, g, 21, 400)

	c := g.BeginCompaction()
	base := c.Build()
	g.Compact() // the inline path wins the race and bumps the epoch
	wantOut, wantIn := dumpAdjacency(g)
	epoch := g.Epoch()

	if g.Install(c, base) {
		t.Fatal("install accepted a compaction frozen before an epoch change")
	}
	if g.Epoch() != epoch {
		t.Fatal("rejected install must not touch the graph")
	}
	gotOut, gotIn := dumpAdjacency(g)
	if !reflect.DeepEqual(gotOut, wantOut) || !reflect.DeepEqual(gotIn, wantIn) {
		t.Fatal("rejected install perturbed the graph")
	}
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestMaybeCompactPolicy checks both halves of the trigger: deltas below the
// threshold are left alone, and deltas at it compact. The threshold is the
// floor on a small graph and a quarter of the edges on a large one.
func TestMaybeCompactPolicy(t *testing.T) {
	if th := New(4).CompactThreshold(); th != compactMinDelta {
		t.Fatalf("empty graph threshold %d, want the floor %d", th, compactMinDelta)
	}
	big := make([]Edge, 0, 8*compactMinDelta)
	for i := range 8 * compactMinDelta {
		big = append(big, Edge{U: VertexID(i % 1000), V: VertexID(i / 1000)})
	}
	if th := FromEdges(big).CompactThreshold(); th != 2*compactMinDelta {
		t.Fatalf("threshold over %d edges is %d, want a quarter of them", len(big), th)
	}

	g := New(4)
	if _, err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if g.MaybeCompact() {
		t.Fatal("a two-entry delta must not trigger compaction")
	}
	for g.DeltaEdges() < g.CompactThreshold() {
		churn(t, g, int64(g.DeltaEdges()), 2000)
	}
	if !g.MaybeCompact() {
		t.Fatalf("delta %d over %d edges must trigger compaction", g.DeltaEdges(), g.NumEdges())
	}
	if g.DeltaEdges() != 0 {
		t.Fatal("MaybeCompact reported success but left deltas behind")
	}
}

// TestFromCSRRoundTrip pins the recovery path: wrapping a compacted
// snapshot with FromCSR yields a graph indistinguishable from the original,
// sharing the base arrays with zero per-edge work, and immediately mutable.
func TestFromCSRRoundTrip(t *testing.T) {
	g := New(8)
	churn(t, g, 33, 500)
	wantOut, wantIn := dumpAdjacency(g)
	base := g.CompactedSnapshot()

	r := FromCSR(base)
	gotOut, gotIn := dumpAdjacency(r)
	if !reflect.DeepEqual(gotOut, wantOut) || !reflect.DeepEqual(gotIn, wantIn) {
		t.Fatal("FromCSR changed the graph")
	}
	if r.NumEdges() != g.NumEdges() || r.NumVertices() != g.NumVertices() {
		t.Fatal("FromCSR changed counts")
	}
	if err := r.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// The recovered graph takes writes without disturbing the shared base.
	churn(t, r, 34, 300)
	if err := r.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	baseOut, _ := dumpAdjacency(base)
	for v := range wantOut {
		if !reflect.DeepEqual(baseOut[v], wantOut[v]) {
			t.Fatalf("mutating a FromCSR graph dirtied the shared base at vertex %d", v)
		}
	}
}

// TestVersionCountsLogicalChanges pins the version contract: Version moves
// on every effective insert, every effective delete and every growth of the
// vertex range, and on nothing else — refused mutations, freezes, merges
// and base swaps leave the logical graph, and so its version, as they were.
// Clone copies it.
func TestVersionCountsLogicalChanges(t *testing.T) {
	g := New(4)
	churn(t, g, 5, 200)
	moves := func(what string, want bool, op func()) {
		t.Helper()
		before := g.Version()
		op()
		if moved := g.Version() != before; moved != want {
			t.Fatalf("%s: version moved %v, want %v", what, moved, want)
		}
	}
	u := VertexID(0)
	for len(g.OutNeighbors(u)) == 0 {
		u++
	}
	v := g.OutNeighbors(u)[0]
	moves("duplicate insert", false, func() { g.AddEdge(u, v) })
	moves("delete of a missing edge", false, func() { g.RemoveEdge(u, u) })
	moves("EnsureVertex within range", false, func() { g.EnsureVertex(VertexID(g.NumVertices() - 1)) })
	moves("View", false, func() { g.View() })
	moves("BeginCompaction/Build/Install", false, func() {
		c := g.BeginCompaction()
		if !g.Install(c, c.Build()) {
			t.Fatal("install rejected a current compaction")
		}
	})
	moves("Snapshot", false, func() { g.Snapshot() })
	moves("Compact", false, g.Compact)
	moves("effective delete", true, func() {
		if err := g.RemoveEdge(u, v); err != nil {
			t.Fatal(err)
		}
	})
	moves("effective insert", true, func() { mustAdd(t, g, u, v) })
	moves("growth", true, func() { g.EnsureVertex(VertexID(g.NumVertices())) })
	moves("Compact of a grown graph", false, g.Compact)
	if c := g.Clone(); c.Version() != g.Version() {
		t.Fatalf("Clone has version %d, original %d", c.Version(), g.Version())
	}
}
