package dynppr_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"dynppr"
)

// lineGraph builds 0 -> 1 -> 2 -> ... -> n-1.
func lineGraph(n int) *dynppr.Graph {
	g := dynppr.NewGraph(n)
	for i := 0; i < n-1; i++ {
		if _, err := g.AddEdge(dynppr.VertexID(i), dynppr.VertexID(i+1)); err != nil {
			panic(err)
		}
	}
	return g
}

func TestDefaultOptionsValid(t *testing.T) {
	opts := dynppr.DefaultOptions()
	if err := opts.Validate(); err != nil {
		t.Fatal(err)
	}
	if opts.Alpha != 0.15 || opts.Engine != dynppr.EngineParallel || opts.Variant != dynppr.VariantOpt {
		t.Fatalf("unexpected defaults: %+v", opts)
	}
}

func TestOptionStrings(t *testing.T) {
	if dynppr.EngineParallel.String() != "parallel" ||
		dynppr.EngineSequential.String() != "sequential" ||
		dynppr.EngineDeterministic.String() != "deterministic" ||
		dynppr.EngineKind(9).String() == "" {
		t.Fatal("EngineKind.String wrong")
	}
}

func TestNewTrackerErrors(t *testing.T) {
	g := lineGraph(3)
	bad := dynppr.DefaultOptions()
	bad.Alpha = 0
	if _, err := dynppr.NewTracker(g, 0, bad); err == nil {
		t.Fatal("invalid alpha must fail")
	}
	unknown := dynppr.DefaultOptions()
	unknown.Engine = dynppr.EngineKind(42)
	if _, err := dynppr.NewTracker(g, 0, unknown); err == nil {
		t.Fatal("unknown engine must fail")
	}
	if _, err := dynppr.NewTracker(g, -1, dynppr.DefaultOptions()); err == nil {
		t.Fatal("negative source must fail")
	}
}

func TestTrackerColdStartAndAccessors(t *testing.T) {
	g := lineGraph(5)
	opts := dynppr.DefaultOptions()
	opts.Epsilon = 1e-8
	tr, err := dynppr.NewTracker(g, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Source() != 4 || tr.Graph() != g || tr.Options().Epsilon != 1e-8 {
		t.Fatal("accessors wrong")
	}
	if tr.EngineName() == "" {
		t.Fatal("engine name empty")
	}
	if !tr.Converged() {
		t.Fatal("tracker must be converged after construction")
	}
	// On the line graph every vertex reaches 4, so every estimate is positive
	// and decreasing with distance from the target.
	prev := math.Inf(1)
	for v := dynppr.VertexID(4); v >= 0; v-- {
		e := tr.Estimate(v)
		if e <= 0 {
			t.Fatalf("estimate of %d = %v, want > 0", v, e)
		}
		if v < 4 && e >= prev {
			t.Fatalf("estimate should decrease with distance: P[%d]=%v >= %v", v, e, prev)
		}
		prev = e
	}
	if got := tr.Estimate(100); got != 0 {
		t.Fatalf("unknown vertex estimate = %v", got)
	}
	if len(tr.Estimates()) != g.NumVertices() {
		t.Fatal("Estimates length wrong")
	}
	if r := tr.Residual(4); math.Abs(r) > opts.Epsilon {
		t.Fatalf("residual %v exceeds epsilon", r)
	}
	if tr.Counters().Pushes == 0 {
		t.Fatal("cold start should have performed pushes")
	}
	maxErr, err := tr.ExactError()
	if err != nil {
		t.Fatal(err)
	}
	if maxErr > opts.Epsilon {
		t.Fatalf("exact error %v exceeds epsilon", maxErr)
	}
}

func TestTrackerApplyBatchInsertAndDelete(t *testing.T) {
	g := lineGraph(4)
	opts := dynppr.DefaultOptions()
	opts.Epsilon = 1e-7
	tr, err := dynppr.NewTracker(g, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	before := tr.Estimate(0)
	// A shortcut edge 0 -> 3 raises 0's probability of reaching 3.
	res := tr.ApplyBatch(dynppr.Batch{
		{U: 0, V: 3, Op: dynppr.Insert},
		{U: 0, V: 3, Op: dynppr.Insert},  // duplicate: skipped
		{U: 9, V: 10, Op: dynppr.Delete}, // missing: skipped
		{U: 5, V: 3, Op: dynppr.Insert},  // new vertex
		{U: 1, V: 2, Op: dynppr.Op(99)},  // unknown op: skipped
	})
	if res.Applied != 2 || res.Skipped != 3 {
		t.Fatalf("applied=%d skipped=%d", res.Applied, res.Skipped)
	}
	if res.Latency <= 0 {
		t.Fatal("latency must be positive")
	}
	if !tr.Converged() {
		t.Fatal("not converged after batch")
	}
	if after := tr.Estimate(0); after <= before {
		t.Fatalf("estimate of 0 should increase after shortcut: %v -> %v", before, after)
	}
	if tr.Estimate(5) <= 0 {
		t.Fatal("new vertex should have positive estimate after pointing at the target")
	}
	if maxErr, err := tr.ExactError(); err != nil || maxErr > opts.Epsilon {
		t.Fatalf("exact error %v (err %v)", maxErr, err)
	}
	// Now delete the shortcut again; estimate drops back.
	high := tr.Estimate(0)
	res = tr.ApplyBatch(dynppr.Batch{{U: 0, V: 3, Op: dynppr.Delete}})
	if res.Applied != 1 {
		t.Fatalf("delete not applied: %+v", res)
	}
	if tr.Estimate(0) >= high {
		t.Fatal("estimate should drop after deleting the shortcut")
	}
	if maxErr, err := tr.ExactError(); err != nil || maxErr > opts.Epsilon {
		t.Fatalf("exact error after delete %v (err %v)", maxErr, err)
	}
}

func TestTrackerTopK(t *testing.T) {
	g := lineGraph(6)
	tr, err := dynppr.NewTracker(g, 5, dynppr.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	top := tr.TopK(3)
	if len(top) != 3 {
		t.Fatalf("TopK returned %d entries", len(top))
	}
	if top[0].Vertex != 5 {
		t.Fatalf("top vertex should be the source, got %d", top[0].Vertex)
	}
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Fatal("TopK not sorted")
		}
	}
	if got := tr.TopK(0); got != nil {
		t.Fatal("TopK(0) should be nil")
	}
	if got := tr.TopK(100); len(got) != g.NumVertices() {
		t.Fatal("TopK(k>n) should clamp to n")
	}
}

func TestTrackerSet(t *testing.T) {
	edges, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: dynppr.ModelRMAT, Vertices: 100, Edges: 700, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := dynppr.GraphFromEdges(edges[:500])
	sources := g.TopDegreeVertices(3)
	opts := dynppr.DefaultOptions()
	opts.Epsilon = 1e-5
	opts.Parallelism = 2

	if _, err := dynppr.NewTrackerSet(g.Clone(), nil, opts); err == nil {
		t.Fatal("empty source list must fail")
	}
	if _, err := dynppr.NewTrackerSet(g.Clone(), []dynppr.VertexID{1, 1}, opts); err == nil {
		t.Fatal("duplicate sources must fail")
	}
	badOpts := opts
	badOpts.Epsilon = 0
	if _, err := dynppr.NewTrackerSet(g.Clone(), sources, badOpts); err == nil {
		t.Fatal("invalid options must fail")
	}

	ts, err := dynppr.NewTrackerSet(g, sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Graph() != g || len(ts.Sources()) != 3 {
		t.Fatal("accessors wrong")
	}
	if !ts.Converged() {
		t.Fatal("tracker set must converge at construction")
	}
	// A mixed batch: the held-out edges, deletions of every 25th initial
	// edge, and two no-ops (a duplicate insert, a missing delete).
	batch := make(dynppr.Batch, 0, 230)
	for _, e := range edges[500:] {
		batch = append(batch, dynppr.Update{U: e.U, V: e.V, Op: dynppr.Insert})
	}
	for i := 0; i < 500; i += 25 {
		batch = append(batch, dynppr.Update{U: edges[i].U, V: edges[i].V, Op: dynppr.Delete})
	}
	batch = append(batch,
		dynppr.Update{U: edges[1].U, V: edges[1].V, Op: dynppr.Insert},
		dynppr.Update{U: 9998, V: 9999, Op: dynppr.Delete})
	res := ts.ApplyBatch(batch)
	if res.Applied == 0 || res.Skipped == 0 || !ts.Converged() {
		t.Fatalf("batch not applied or not converged: %+v", res)
	}
	if _, err := ts.Estimate(9999, 0); err == nil {
		t.Fatal("estimating an untracked source must fail")
	}

	// A Tracker is a one-source set running the same loop, so under the
	// reproducible engines each source's estimates carry exactly the bits of
	// an independent Tracker fed the same batch, and the BatchResults agree
	// field by field. BatchResult.Pushes is the work of this batch, as
	// Tracker reports it — not the sources' lifetime counters.
	base := dynppr.GraphFromEdges(edges[:500])
	requireSameEstimates := func(name string, set *dynppr.TrackerSet, s dynppr.VertexID, single *dynppr.Tracker) {
		t.Helper()
		for v := dynppr.VertexID(0); int(v) < set.Graph().NumVertices(); v++ {
			got, err := set.Estimate(s, v)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(single.Estimate(v)) {
				t.Fatalf("%s: source %d vertex %d: set estimate %v vs tracker %v", name, s, v, got, single.Estimate(v))
			}
		}
	}
	sameCounts := func(name string, got, want dynppr.BatchResult) {
		t.Helper()
		if got.Applied != want.Applied || got.Skipped != want.Skipped || got.Pushes != want.Pushes {
			t.Fatalf("%s: result %+v, want applied %d skipped %d pushes %d", name, got, want.Applied, want.Skipped, want.Pushes)
		}
	}
	for _, engine := range []dynppr.EngineKind{dynppr.EngineSequential, dynppr.EngineDeterministic} {
		opts.Engine = engine
		var want dynppr.BatchResult
		var lifetimePushes int64
		singles := make([]*dynppr.Tracker, len(sources))
		for i, s := range sources {
			single, err := dynppr.NewTracker(base.Clone(), s, opts)
			if err != nil {
				t.Fatal(err)
			}
			r := single.ApplyBatch(batch)
			want.Applied, want.Skipped = r.Applied, r.Skipped
			want.Pushes += r.Pushes
			lifetimePushes += single.Counters().Pushes
			singles[i] = single
		}
		set, err := dynppr.NewTrackerSet(base.Clone(), sources, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res := set.ApplyBatch(nil); res.Pushes != 0 {
			t.Fatalf("%v: empty batch reported %d pushes", engine, res.Pushes)
		}
		res := set.ApplyBatch(batch)
		sameCounts(engine.String(), res, want)
		if res.Pushes <= 0 || res.Pushes >= lifetimePushes {
			t.Fatalf("%v: batch reported %d pushes (lifetime %d)", engine, res.Pushes, lifetimePushes)
		}
		for i, s := range sources {
			requireSameEstimates(engine.String(), set, s, singles[i])
		}
	}

	// Adjacency lists are sorted, so the arrival order of the initial edges
	// never reaches the bits: trackers built from two shuffles of the same
	// edges and fed the same batch agree exactly.
	opts.Engine = dynppr.EngineSequential
	var shuffled [2]*dynppr.Tracker
	for i := range shuffled {
		initial := append([]dynppr.Edge(nil), edges[:500]...)
		rand.New(rand.NewSource(int64(i))).Shuffle(len(initial), func(a, b int) { initial[a], initial[b] = initial[b], initial[a] })
		tr, err := dynppr.NewTracker(dynppr.GraphFromEdges(initial), sources[0], opts)
		if err != nil {
			t.Fatal(err)
		}
		tr.ApplyBatch(batch)
		shuffled[i] = tr
	}
	est0, est1 := shuffled[0].Estimates(), shuffled[1].Estimates()
	for v := range est0 {
		if math.Float64bits(est0[v]) != math.Float64bits(est1[v]) {
			t.Fatalf("arrival order reached the bits: vertex %d estimates %v vs %v", v, est0[v], est1[v])
		}
	}
}

// A TrackerSet keeps one engine per worker, not per source: a source is its
// pair of vectors, and the scratch a push works in (the deterministic
// engine's per-stripe delta buffers and frontier marks) belongs to whoever
// runs it. 64 sources on two workers therefore stay under a per-source heap
// that 64 engines exceed.
func TestTrackerSetEnginePerWorker(t *testing.T) {
	const n, nSources = 20_000, 64
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	edges, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: dynppr.ModelErdosRenyi, Vertices: n, Edges: 3 * n, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := dynppr.GraphFromEdges(edges)
	opts := dynppr.DefaultOptions()
	opts.Epsilon = 1e-3
	opts.Engine = dynppr.EngineDeterministic
	opts.Parallelism = 2

	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	ts, err := dynppr.NewTrackerSet(g, g.TopDegreeVertices(nSources), opts)
	if err != nil {
		t.Fatal(err)
	}
	// One effective batch, so every engine that will ever run has run.
	if res := ts.ApplyBatch(dynppr.Batch{{U: edges[0].U, V: edges[0].V, Op: dynppr.Delete}}); res.Applied != 1 {
		t.Fatalf("batch: %+v", res)
	}
	perVertex := (float64(liveHeap()) - float64(before)) / (n * nSources)
	runtime.KeepAlive(ts)
	t.Logf("%d sources: %.1f live heap bytes per vertex per source", nSources, perVertex)
	if perVertex >= 32 {
		t.Fatalf("a source costs %.1f live heap bytes per vertex, want < 32", perVertex)
	}
}

// Property: whatever insert-only batch is applied, the tracker stays within
// epsilon of the exact vector.
func TestTrackerAccuracyProperty(t *testing.T) {
	f := func(seed int64) bool {
		edges, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
			Model: dynppr.ModelErdosRenyi, Vertices: 50, Edges: 300, Seed: seed,
		})
		if err != nil {
			return false
		}
		g := dynppr.GraphFromEdges(edges[:200])
		opts := dynppr.DefaultOptions()
		opts.Epsilon = 1e-4
		opts.Parallelism = 2
		tr, err := dynppr.NewTracker(g, 0, opts)
		if err != nil {
			return false
		}
		batch := make(dynppr.Batch, 0, 100)
		for _, e := range edges[200:] {
			batch = append(batch, dynppr.Update{U: e.U, V: e.V, Op: dynppr.Insert})
		}
		tr.ApplyBatch(batch)
		maxErr, err := tr.ExactError()
		return err == nil && maxErr <= opts.Epsilon
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
