package push

import (
	"math/rand"
	"slices"
	"testing"

	"dynppr/internal/gen"
	"dynppr/internal/graph"
)

// bitsEq compares two float64 slices for exact (bit-level) equality.
func bitsEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sparseTestEngines returns the engines that participate in delta
// publication (the vertex-centric baseline poisons the dirty set by design
// and is exercised separately).
func sparseTestEngines() map[string]Engine {
	return map[string]Engine{
		"sequential":    NewSequential(),
		"parallel-opt":  NewParallel(VariantOpt, 2),
		"sortaggregate": NewSortAggregate(2),
	}
}

// TestDeltaPublishBitIdentical drives a mixed insert/delete stream through
// each engine, publishing after every batch, and asserts that the
// delta-published snapshot is bit-identical to the live estimate vector (the
// full-copy oracle) and that the embedded Top-K index matches a full
// recompute at every depth — while verifying the delta path actually ran.
func TestDeltaPublishBitIdentical(t *testing.T) {
	universe, err := gen.EdgeList(gen.Config{
		Model: gen.RMAT, Vertices: 1500, Edges: 9000, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, engine := range sparseTestEngines() {
		t.Run(name, func(t *testing.T) {
			g := graph.FromEdges(universe[:6000])
			st, err := NewState(g, universe[0].V, Config{Alpha: 0.15, Epsilon: 1e-4})
			if err != nil {
				t.Fatal(err)
			}
			slot := NewSnapshotSlotTopK(16)
			engine.Run(st, []graph.VertexID{st.Source()})
			slot.Publish(st)

			rng := rand.New(rand.NewSource(99))
			var present []graph.Edge
			for batch := 0; batch < 25; batch++ {
				touched := make([]graph.VertexID, 0, 8)
				for i := 0; i < 8; i++ {
					var u, v graph.VertexID
					var changed bool
					if len(present) > 0 && rng.Intn(3) == 0 {
						e := present[rng.Intn(len(present))]
						u, v = e.U, e.V
						changed, _ = st.ApplyDelete(u, v)
					} else if rng.Intn(10) == 0 {
						// Growth: a vertex id beyond the current size.
						u, v = graph.VertexID(g.NumVertices()), graph.VertexID(rng.Intn(g.NumVertices()))
						changed, _ = st.ApplyInsert(u, v)
						present = append(present, graph.Edge{U: u, V: v})
					} else {
						e := universe[rng.Intn(len(universe))]
						u, v = e.U, e.V
						changed, _ = st.ApplyInsert(u, v)
						present = append(present, graph.Edge{U: u, V: v})
					}
					if changed {
						touched = append(touched, u)
					}
				}
				engine.Run(st, touched)
				snap := slot.Publish(st)
				if want := st.Estimates(); !bitsEq(snap.Estimates(), want) {
					t.Fatalf("batch %d: published snapshot diverges from live state", batch)
				}
				if snap.MaxResidual() > snap.Epsilon() {
					t.Fatalf("batch %d: snapshot not converged (%v > %v)", batch, snap.MaxResidual(), snap.Epsilon())
				}
				for _, k := range []int{1, 5, 16, 23, st.NumVertices()} {
					got := snap.AppendTopK(nil, k)
					want := AppendTopK(nil, snap.Estimates(), k)
					if len(got) != len(want) {
						t.Fatalf("batch %d k=%d: got %d entries, want %d", batch, k, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("batch %d k=%d: entry %d = %+v, want %+v", batch, k, i, got[i], want[i])
						}
					}
				}
			}
			stats := slot.Stats()
			if stats.Delta == 0 {
				t.Fatalf("delta path never ran: %+v", stats)
			}
			if stats.Full == 0 {
				t.Fatalf("growth never forced a full publish: %+v", stats)
			}
		})
	}
}

// TestTopIndexPropertyRandom hammers the incremental index with random
// estimate rewrites (including exact ties, zeroing and negatives) and
// asserts after every apply that the whole retained depth — not only the
// served prefix — equals the full-scan ranking of that length, and that the
// depth stays between the served min(cap, n) and 2×cap. The apply contract
// is "always exact afterwards", with staleness and drains only deciding
// whether a rebuild was needed.
func TestTopIndexPropertyRandom(t *testing.T) {
	const n, cap = 40, 8
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(graph.VertexID(v), 0)
	}
	st, err := NewState(g, 0, Config{Alpha: 0.15, Epsilon: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	ti := topIndex{cap: cap}
	ti.apply(st, nil, true) // cold start

	scores := []float64{0, 0, 0.1, 0.1, 0.2, 0.3, -0.05, 0.25}
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 4000; iter++ {
		m := 1 + rng.Intn(3)
		dirty := make([]int32, 0, m)
		for j := 0; j < m; j++ {
			v := int32(rng.Intn(n))
			st.p[v] = scores[rng.Intn(len(scores))]
			dirty = append(dirty, v)
		}
		ti.apply(st, dirty, false)
		if d := len(ti.entries); d < cap || d > 2*cap {
			t.Fatalf("iter %d: index holds %d entries, want between %d and %d", iter, d, cap, 2*cap)
		}
		want := st.AppendTopK(nil, len(ti.entries))
		for i := range want {
			if ti.entries[i] != want[i] {
				t.Fatalf("iter %d: entry %d = %+v, want %+v (index %+v)", iter, i, ti.entries[i], want[i], want)
			}
		}
		for v := range n {
			if ti.member.has(graph.VertexID(v)) != slices.Contains(want, VertexScore{Vertex: graph.VertexID(v), Score: st.Estimate(graph.VertexID(v))}) {
				t.Fatalf("iter %d: member[%d] = %t disagrees with the entries", iter, v, ti.member.has(graph.VertexID(v)))
			}
		}
	}
	if ti.rebuilds.Load() <= 1 {
		t.Fatal("random decays never drained the index below its served depth — test is too tame")
	}
}

// TestTopIndexAbsorbsDecays pins the slack: sinking the last served entry
// of a full index drops it and promotes the next retained one, so cap such
// sinks publish an exact prefix every time without a single rebuild beyond
// the cold start; the sink that leaves fewer than cap entries rebuilds.
func TestTopIndexAbsorbsDecays(t *testing.T) {
	const n, cap = 200, 8
	st, err := NewState(graph.New(n), 0, Config{Alpha: 0.15, Epsilon: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	for v := range n {
		st.p[v] = 1 / float64(v+1)
	}
	slot := NewSnapshotSlotTopK(cap)
	slot.Publish(st) // cold start
	for sink := 1; sink <= cap+1; sink++ {
		cur := slot.Acquire()
		bottom := cur.AppendTopK(nil, cap)[cap-1].Vertex
		cur.Release()
		st.p[bottom] = 0
		st.MarkEstimatesDirty([]int32{bottom})
		snap := slot.Publish(st)
		if len(snap.top) != cap {
			t.Fatalf("sink %d: published %d entries, want %d", sink, len(snap.top), cap)
		}
		for k := 1; k <= cap; k++ {
			if got, want := snap.AppendTopK(nil, k), st.AppendTopK(nil, k); !slices.Equal(got, want) {
				t.Fatalf("sink %d k=%d: published %v, want %v", sink, k, got, want)
			}
		}
		want := uint64(1) // the cold start
		if sink > cap {
			want = 2 // fewer than cap entries left: rebuilt
		}
		if got := slot.Stats().TopKRebuilds; got != want {
			t.Fatalf("after %d sinks: %d rebuilds, want %d", sink, got, want)
		}
	}
}

// TestPublishFullFallbacks verifies the full-copy rules: the slot's first
// publication, a grown vector and a poisoned dirty set (MarkAllEstimatesDirty)
// each force exactly one full copy — the slot keeps one copy besides the
// state's own P, so nothing else missed the interval — and every other
// publication is a delta that leaves the state's P bit-identical to the
// snapshot.
func TestPublishFullFallbacks(t *testing.T) {
	g := graph.New(0)
	for v := 1; v < 50; v++ {
		g.AddEdge(graph.VertexID(v), 0)
	}
	st, err := NewState(g, 0, Config{Alpha: 0.2, Epsilon: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	engine := NewSequential()
	engine.Run(st, []graph.VertexID{0})
	slot := NewSnapshotSlot()

	perturb := func(u, v graph.VertexID) {
		changed, err := st.ApplyInsert(u, v)
		if err != nil || !changed {
			t.Fatalf("insert %d->%d: changed=%t err=%v", u, v, changed, err)
		}
		engine.Run(st, []graph.VertexID{u})
	}
	publish := func(step int, wantFull bool) {
		t.Helper()
		before := slot.Stats()
		snap := slot.Publish(st)
		after := slot.Stats()
		if gotFull := after.Full > before.Full; gotFull != wantFull || after.Full+after.Delta != before.Full+before.Delta+1 {
			t.Fatalf("publication %d: full=%t, want %t (%+v)", step, gotFull, wantFull, after)
		}
		if !bitsEq(snap.Estimates(), st.Estimates()) {
			t.Fatalf("publication %d: the state's P diverges from the snapshot", step)
		}
	}

	publish(1, true) // the slot's first publication
	perturb(50, 0)
	publish(2, true) // growth
	perturb(51, 0)
	publish(3, true) // growth
	perturb(1, 2)
	publish(4, false) // the copy published at 3 covers the vector
	st.MarkAllEstimatesDirty()
	publish(5, true) // poisoned
	perturb(2, 3)
	publish(6, false) // one full copy absorbed the poisoned interval
	for i := range 3 {
		perturb(graph.VertexID(3+i), graph.VertexID(4+i))
		publish(7+i, false)
	}
}

// TestDrainDirty checks the drain contract: dedup, reset, poisoning.
func TestDrainDirty(t *testing.T) {
	g := graph.New(5)
	st, err := NewState(g, 0, Config{Alpha: 0.2, Epsilon: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	st.DrainDirty(nil) // a new state starts poisoned; its first drain lifts that
	st.MarkEstimatesDirty([]int32{3, 1, 3, 2, 1})
	if len(st.dirtyList) != 3 {
		t.Fatalf("dirty count %d, want 3 (deduplicated)", len(st.dirtyList))
	}
	d, all := st.DrainDirty(nil)
	if all || len(d) != 3 {
		t.Fatalf("drain = %v all=%t, want 3 vertices, not poisoned", d, all)
	}
	if len(st.dirtyList) != 0 {
		t.Fatal("drain did not reset the set")
	}
	st.MarkEstimatesDirty([]int32{4})
	st.MarkAllEstimatesDirty()
	st.MarkEstimatesDirty([]int32{2}) // ignored while poisoned
	d, all = st.DrainDirty(d[:0])
	if !all || len(d) != 0 {
		t.Fatalf("poisoned drain = %v all=%t, want empty/poisoned", d, all)
	}
	if _, all = st.DrainDirty(nil); all {
		t.Fatal("poisoning survived the drain")
	}
}
