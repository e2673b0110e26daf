package dynppr_test

import (
	"math"
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
	if opts.Alpha != 0.15 || opts.Engine != dynppr.EngineParallel || opts.Mode != dynppr.BatchMode {
		t.Fatalf("unexpected defaults: %+v", opts)
	}
}

func TestOptionStrings(t *testing.T) {
	if dynppr.EngineParallel.String() != "parallel" ||
		dynppr.EngineSequential.String() != "sequential" ||
		dynppr.EngineVertexCentric.String() != "vertex-centric" ||
		dynppr.EngineKind(9).String() == "" {
		t.Fatal("EngineKind.String wrong")
	}
	if dynppr.BatchMode.String() != "batch" || dynppr.SingleUpdateMode.String() != "single" {
		t.Fatal("UpdateMode.String wrong")
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
	res = tr.ApplyUpdate(dynppr.Update{U: 0, V: 3, Op: dynppr.Delete})
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

func TestTrackerEnginesAgree(t *testing.T) {
	edges, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: dynppr.ModelRMAT, Vertices: 200, Edges: 1200, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	build := func(engine dynppr.EngineKind, variant dynppr.Variant, mode dynppr.UpdateMode) *dynppr.Tracker {
		opts := dynppr.DefaultOptions()
		opts.Engine = engine
		opts.Variant = variant
		opts.Epsilon = 1e-5
		opts.Mode = mode
		opts.Workers = 4
		g := dynppr.GraphFromEdges(edges[:800])
		tr, err := dynppr.NewTracker(g, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		batch := make(dynppr.Batch, 0, 400)
		for _, e := range edges[800:] {
			batch = append(batch, dynppr.Update{U: e.U, V: e.V, Op: dynppr.Insert})
		}
		tr.ApplyBatch(batch)
		return tr
	}
	reference := build(dynppr.EngineSequential, dynppr.VariantOpt, dynppr.BatchMode)
	configs := []struct {
		name    string
		engine  dynppr.EngineKind
		variant dynppr.Variant
		mode    dynppr.UpdateMode
	}{
		{"parallel-opt", dynppr.EngineParallel, dynppr.VariantOpt, dynppr.BatchMode},
		{"parallel-vanilla", dynppr.EngineParallel, dynppr.VariantVanilla, dynppr.BatchMode},
		{"parallel-eager", dynppr.EngineParallel, dynppr.VariantEager, dynppr.BatchMode},
		{"parallel-dupdetect", dynppr.EngineParallel, dynppr.VariantDupDetect, dynppr.BatchMode},
		{"vertex-centric", dynppr.EngineVertexCentric, dynppr.VariantOpt, dynppr.BatchMode},
		{"sequential-single", dynppr.EngineSequential, dynppr.VariantOpt, dynppr.SingleUpdateMode},
	}
	refEst := reference.Estimates()
	for _, c := range configs {
		tr := build(c.engine, c.variant, c.mode)
		est := tr.Estimates()
		if len(est) != len(refEst) {
			t.Fatalf("%s: estimate length mismatch", c.name)
		}
		for v := range est {
			if d := math.Abs(est[v] - refEst[v]); d > 2e-5 {
				t.Errorf("%s: estimate of %d differs from sequential by %v", c.name, v, d)
				break
			}
		}
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

func TestTrackerSlidingWindowWorkload(t *testing.T) {
	edges, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: dynppr.ModelBarabasiAlbert, Vertices: 150, Edges: 1500, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := dynppr.NewStream(edges, 1)
	window, initial := dynppr.NewSlidingWindow(s, 0.3)
	g := dynppr.GraphFromEdges(initial)
	source := g.TopDegreeVertices(1)[0]
	opts := dynppr.DefaultOptions()
	opts.Epsilon = 1e-5
	tr, err := dynppr.NewTracker(g, source, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		batch := window.Slide(50)
		if batch == nil {
			break
		}
		res := tr.ApplyBatch(batch)
		if !tr.Converged() {
			t.Fatalf("slide %d: not converged", i)
		}
		if res.Applied == 0 {
			t.Fatalf("slide %d applied nothing", i)
		}
	}
	maxErr, err := tr.ExactError()
	if err != nil {
		t.Fatal(err)
	}
	if maxErr > opts.Epsilon {
		t.Fatalf("exact error %v exceeds epsilon after sliding window", maxErr)
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
	opts.Workers = 2

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
	batch := make(dynppr.Batch, 0, 200)
	for _, e := range edges[500:] {
		batch = append(batch, dynppr.Update{U: e.U, V: e.V, Op: dynppr.Insert})
	}
	res := ts.ApplyBatch(batch)
	if res.Applied == 0 || !ts.Converged() {
		t.Fatalf("batch not applied or not converged: %+v", res)
	}
	// Each tracked source must agree with an independent single-source tracker.
	for _, s := range sources {
		single, err := dynppr.NewTracker(g.Clone(), s, opts)
		if err != nil {
			t.Fatal(err)
		}
		for v := dynppr.VertexID(0); int(v) < g.NumVertices(); v += 7 {
			got, err := ts.Estimate(s, v)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(got - single.Estimate(v)); d > 2*opts.Epsilon {
				t.Fatalf("source %d vertex %d: set estimate %v vs single %v", s, v, got, single.Estimate(v))
			}
		}
	}
	if _, err := ts.Estimate(9999, 0); err == nil {
		t.Fatal("estimating an untracked source must fail")
	}

	// BatchResult.Pushes is the work of this batch, as Tracker reports it —
	// not the sources' lifetime counters. Under the deterministic engine the
	// set schedules each source exactly like a Tracker of its own, so the
	// counts agree to the push.
	opts.Engine = dynppr.EngineDeterministic
	initial := dynppr.GraphFromEdges(edges[:500])
	var batchPushes, lifetimePushes int64
	for _, s := range sources {
		single, err := dynppr.NewTracker(initial.Clone(), s, opts)
		if err != nil {
			t.Fatal(err)
		}
		batchPushes += single.ApplyBatch(batch).Pushes
		lifetimePushes += single.Counters().Pushes
	}
	det, err := dynppr.NewTrackerSet(initial, sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res := det.ApplyBatch(nil); res.Pushes != 0 {
		t.Fatalf("empty batch reported %d pushes", res.Pushes)
	}
	if res := det.ApplyBatch(batch); res.Pushes <= 0 || res.Pushes != batchPushes || res.Pushes >= lifetimePushes {
		t.Fatalf("batch reported %d pushes, want %d (lifetime %d)", res.Pushes, batchPushes, lifetimePushes)
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
		opts.Workers = 2
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
