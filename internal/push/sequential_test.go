package push

import (
	"testing"

	"dynppr/internal/gen"
	"dynppr/internal/graph"
	"dynppr/internal/stream"
)

// replay is one State over the first two thirds of a seeded R-MAT edge list,
// cold-started with e and then fed a fixed insert/delete stream one batch per
// step. The engine is handed in per call, so a test decides whether a state
// keeps one engine to itself or shares it.
type replay struct {
	st    *State
	edges []graph.Edge
	batch int
}

func newReplay(t *testing.T, e Engine, vertices, edges int, seed int64) *replay {
	t.Helper()
	list, err := gen.EdgeList(gen.Config{Model: gen.RMAT, Vertices: vertices, Edges: edges, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromEdges(list[:len(list)*2/3])
	st, err := NewState(g, g.TopDegreeVertices(1)[0], Config{Alpha: 0.15, Epsilon: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(st, []graph.VertexID{st.source})
	return &replay{st: st, edges: list}
}

// step inserts the next 40 unused edges, deletes the next 10 initial ones and
// pushes with e.
func (rp *replay) step(t *testing.T, e Engine) {
	t.Helper()
	var b stream.Batch
	for _, ins := range rp.edges[len(rp.edges)*2/3+40*rp.batch:][:40] {
		b = append(b, stream.Update{U: ins.U, V: ins.V, Op: stream.Insert})
	}
	for _, del := range rp.edges[10*rp.batch:][:10] {
		b = append(b, stream.Update{U: del.U, V: del.V, Op: stream.Delete})
	}
	rp.batch++
	e.Run(rp.st, Restore(rp.st.g, []*State{rp.st}, b, nil))
	if !rp.st.Converged() {
		t.Fatalf("%s: batch %d not converged", e.Name(), rp.batch)
	}
}

// Sequential's queue is a head cursor over the state's scratch, compacted in
// place: the dequeue order — every bit of the result — is the plain FIFO's
// (densePush dequeues by re-slicing), and once the scratch has reached its
// steady-state size a Run that does real work allocates nothing.
func TestSequentialQueue(t *testing.T) {
	e := NewSequential()
	st := newReplay(t, e, 400, 3600, 37).st
	p, r, pushes, _ := densePush(st.g, st.source, st.cfg.Alpha, st.cfg.Epsilon, 0)
	if !bitsEq(st.Estimates(), p) || !bitsEq(st.Residuals(), r) || st.Counters.Pushes != pushes {
		t.Fatalf("cold start diverges from the plain FIFO (%d vs %d pushes)", st.Counters.Pushes, pushes)
	}

	// Steady state: shake the residuals of a fixed vertex set, alternately up
	// and down so both phases run, and push. Dirty tracking is poisoned so
	// the unpublished state's dirty list stays out of the count.
	st.MarkAllEstimatesDirty()
	touched := st.g.TopDegreeVertices(8)
	delta := 0.01
	shakeAndRun := func() {
		for _, v := range touched {
			st.r[v] += delta
		}
		delta = -delta
		pushes = st.Counters.Pushes
		e.Run(st, touched)
		pushes = st.Counters.Pushes - pushes
	}
	for i := 0; i < 4; i++ {
		shakeAndRun()
	}
	if allocs := testing.AllocsPerRun(20, shakeAndRun); allocs != 0 || pushes < 100 {
		t.Fatalf("steady-state Run of %d pushes (want ≥ 100) allocates %.0f times (want 0)", pushes, allocs)
	}
}

// TestSharedSequentialBitIdenticalToDedicated is what lets a TrackerSet
// worker run every source it claims through one Sequential: an engine driven
// alternately over two states — on different graphs, the second larger —
// leaves both with exactly the bits two dedicated engines produce.
func TestSharedSequentialBitIdenticalToDedicated(t *testing.T) {
	shared, dedSmall, dedLarge := NewSequential(), NewSequential(), NewSequential()
	small, wantSmall := newReplay(t, shared, 150, 1200, 31), newReplay(t, dedSmall, 150, 1200, 31)
	large, wantLarge := newReplay(t, shared, 400, 3600, 37), newReplay(t, dedLarge, 400, 3600, 37)
	for b := 0; b < 5; b++ {
		wantSmall.step(t, dedSmall)
		wantLarge.step(t, dedLarge)
		small.step(t, shared)
		large.step(t, shared)
	}
	for _, pair := range [][2]*replay{{small, wantSmall}, {large, wantLarge}} {
		got, want := pair[0].st, pair[1].st
		if !bitsEq(got.Estimates(), want.Estimates()) || !bitsEq(got.Residuals(), want.Residuals()) {
			t.Fatalf("shared engine diverges from a dedicated one on the %d-vertex graph", got.NumVertices())
		}
	}
}

// BenchmarkSequentialTrackedPush times the tracked push the serving path runs
// after a bulk batch: one source converged on an R-MAT graph of 100 000
// vertices, then one 10 000-update batch (5 000 inserts of unseen edges,
// 5 000 deletes of present ones) applied and restored, so the push reads a
// graph with live overlays. Every iteration resets P and R to the
// post-restore vectors and pushes from the batch's endpoints; ns/prop is the
// time per residual propagation, the kernel's inner-loop unit.
func BenchmarkSequentialTrackedPush(b *testing.B) {
	list, err := gen.EdgeList(gen.Config{Model: gen.RMAT, Vertices: 100_000, Edges: 1_000_000, Seed: 35})
	if err != nil {
		b.Fatal(err)
	}
	initial := len(list) * 4 / 5
	g := graph.FromEdges(list[:initial])
	st, err := NewState(g, g.TopDegreeVertices(1000)[999], Config{Alpha: 0.15, Epsilon: 1e-6})
	if err != nil {
		b.Fatal(err)
	}
	e := NewSequential()
	e.Run(st, []graph.VertexID{st.source})
	var batch stream.Batch
	for i := 0; i < 5000; i++ {
		ins, del := list[initial+i], list[i]
		batch = append(batch, stream.Update{U: ins.U, V: ins.V, Op: stream.Insert}, stream.Update{U: del.U, V: del.V, Op: stream.Delete})
	}
	touched := Restore(g, []*State{st}, batch, nil)
	st.MarkAllEstimatesDirty()
	p0, r0 := st.Estimates(), st.Residuals()
	var props int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(st.p, p0)
		copy(st.r, r0)
		before := st.Counters.Propagations
		b.StartTimer()
		e.Run(st, touched)
		props += st.Counters.Propagations - before
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(props), "ns/prop")
	b.ReportMetric(float64(props)/float64(b.N), "props/op")
}
