package dynppr_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"dynppr"
)

func serviceTestEdges(t *testing.T, model dynppr.GraphModel, n, m int, seed int64) []dynppr.Edge {
	t.Helper()
	edges, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: model, Vertices: n, Edges: m, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return edges
}

func newTestService(t *testing.T, edges []dynppr.Edge, nSources int, eps float64) (*dynppr.Service, []dynppr.VertexID) {
	t.Helper()
	g := dynppr.GraphFromEdges(edges)
	sources := g.TopDegreeVertices(nSources)
	so := dynppr.DefaultServiceOptions()
	so.Options.Epsilon = eps
	so.PoolWorkers = 2
	svc, err := dynppr.NewService(g, sources, so)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc, sources
}

// serviceMethods returns the exported methods of *dynppr.Service, sorted.
func serviceMethods() []string {
	typ := reflect.TypeOf(&dynppr.Service{})
	names := make([]string, typ.NumMethod())
	for i := range names {
		names[i] = typ.Method(i).Name
	}
	return names
}

// TestServiceMethodSurface pins the exported methods of Service: one entry
// point per operation, so a new method — an alias with a different default
// context or a dropped return value above all — shows up as a diff here.
func TestServiceMethodSurface(t *testing.T) {
	got := serviceMethods()
	want := strings.Fields(`AppendTopK ApplyBatch ApplyBatchCtx Checkpoint Close Closed
		CompactNow EstimateInfo EstimatesInfo Info Options PersistenceHealth
		QueryEstimateCtx QueryTopKCtx Queue Sources Stats UpdateSources`)
	if !slices.Equal(got, want) { // reflect lists methods in sorted order
		t.Fatalf("Service has %d methods %v, the golden list has %d: %v", len(got), got, len(want), want)
	}
}

func TestNewServiceErrors(t *testing.T) {
	edges := serviceTestEdges(t, dynppr.ModelErdosRenyi, 50, 200, 3)
	g := dynppr.GraphFromEdges(edges)
	so := dynppr.DefaultServiceOptions()

	if _, err := dynppr.NewService(g, nil, so); err == nil {
		t.Fatal("empty source list must fail")
	}
	if _, err := dynppr.NewService(g, []dynppr.VertexID{1, 1}, so); err == nil {
		t.Fatal("duplicate sources must fail")
	}
	bad := so
	bad.Options.Epsilon = 0
	if _, err := dynppr.NewService(g, []dynppr.VertexID{1}, bad); err == nil {
		t.Fatal("invalid options must fail")
	}
}

func TestServiceReadErrors(t *testing.T) {
	edges := serviceTestEdges(t, dynppr.ModelErdosRenyi, 60, 300, 5)
	svc, _ := newTestService(t, edges, 2, 1e-4)

	if _, _, err := svc.EstimateInfo(9999, 0); !errors.Is(err, dynppr.ErrUnknownSource) {
		t.Fatalf("want ErrUnknownSource, got %v", err)
	}
	if _, _, err := svc.EstimatesInfo(9999); !errors.Is(err, dynppr.ErrUnknownSource) {
		t.Fatalf("want ErrUnknownSource, got %v", err)
	}
	if _, _, err := svc.AppendTopK(nil, 9999, 3); !errors.Is(err, dynppr.ErrUnknownSource) {
		t.Fatalf("want ErrUnknownSource, got %v", err)
	}
	if _, err := svc.Info(9999); !errors.Is(err, dynppr.ErrUnknownSource) {
		t.Fatalf("want ErrUnknownSource, got %v", err)
	}
}

func TestServiceAddRemoveSource(t *testing.T) {
	edges := serviceTestEdges(t, dynppr.ModelBarabasiAlbert, 100, 600, 11)
	svc, sources := newTestService(t, edges, 2, 1e-4)

	if err := svc.UpdateSources(context.Background(), []dynppr.VertexID{sources[0]}, nil); err == nil {
		t.Fatal("adding an existing source must fail")
	}
	if err := svc.UpdateSources(context.Background(), nil, []dynppr.VertexID{9999}); !errors.Is(err, dynppr.ErrUnknownSource) {
		t.Fatalf("removing an unknown source: %v", err)
	}

	extra := dynppr.VertexID(7)
	if err := svc.UpdateSources(context.Background(), []dynppr.VertexID{extra}, nil); err != nil {
		t.Fatal(err)
	}
	if got := len(svc.Sources()); got != 3 {
		t.Fatalf("sources = %d, want 3", got)
	}
	info, err := svc.Info(extra)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Converged() || info.Epoch != 1 || info.Source != extra {
		t.Fatalf("cold-started snapshot info wrong: %+v", info)
	}
	// The new source agrees with an offline tracker on the same graph.
	opts := dynppr.DefaultOptions()
	opts.Epsilon = 1e-4
	tr, err := dynppr.NewTracker(dynppr.GraphFromEdges(edges), extra, opts)
	if err != nil {
		t.Fatal(err)
	}
	for v := dynppr.VertexID(0); int(v) < 100; v += 13 {
		got, _, err := svc.EstimateInfo(extra, v)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(got - tr.Estimate(v)); d > 2*opts.Epsilon {
			t.Fatalf("vertex %d: %v vs %v", v, got, tr.Estimate(v))
		}
	}

	// The added source participates in subsequent batches.
	if _, err := svc.ApplyBatch(dynppr.Batch{{U: 3, V: extra, Op: dynppr.Insert}}); err != nil {
		t.Fatal(err)
	}
	info, err = svc.Info(extra)
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 2 || !info.Converged() {
		t.Fatalf("epoch after batch = %+v", info)
	}

	if err := svc.UpdateSources(context.Background(), nil, []dynppr.VertexID{extra}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.EstimateInfo(extra, 0); !errors.Is(err, dynppr.ErrUnknownSource) {
		t.Fatalf("read after remove: %v", err)
	}
	if got := len(svc.Sources()); got != 2 {
		t.Fatalf("sources after remove = %d, want 2", got)
	}
	// Remaining sources still served and still updated.
	if _, err := svc.ApplyBatch(dynppr.Batch{{U: 5, V: sources[0], Op: dynppr.Insert}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.EstimateInfo(sources[0], 5); err != nil {
		t.Fatal(err)
	}
}

func TestServiceStats(t *testing.T) {
	edges := serviceTestEdges(t, dynppr.ModelErdosRenyi, 80, 400, 21)
	svc, sources := newTestService(t, edges, 3, 1e-4)
	if avg := svc.Stats().AvgBatchLatency; avg != 0 {
		t.Fatalf("zero-batch avg latency %v, want 0", avg)
	}

	res, err := svc.ApplyBatch(dynppr.Batch{
		{U: 0, V: 1, Op: dynppr.Insert},
		{U: 0, V: 1, Op: dynppr.Insert}, // duplicate
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := svc.Stats()
	if stats.Batches != 1 {
		t.Fatalf("batches = %d", stats.Batches)
	}
	if stats.UpdatesApplied != int64(res.Applied) || stats.UpdatesSkipped != int64(res.Skipped) {
		t.Fatalf("update counts %+v vs result %+v", stats, res)
	}
	if stats.LastBatchLatency <= 0 || stats.TotalBatchLatency < stats.LastBatchLatency {
		t.Fatalf("latencies wrong: %+v", stats)
	}
	if stats.AvgBatchLatency <= 0 {
		t.Fatal("average latency must be positive")
	}
	if stats.Vertices <= 0 || stats.Edges <= 0 || stats.PoolWorkers != 2 {
		t.Fatalf("graph stats wrong: %+v", stats)
	}
	if len(stats.Sources) != len(sources) {
		t.Fatalf("source stats length %d, want %d", len(stats.Sources), len(sources))
	}
	for i, ss := range stats.Sources {
		if i > 0 && stats.Sources[i-1].Source >= ss.Source {
			t.Fatal("source stats not sorted")
		}
		if ss.Pushes <= 0 {
			t.Fatalf("source %d performed no pushes", ss.Source)
		}
		if ss.Epoch != 2 {
			t.Fatalf("source %d epoch = %d, want 2", ss.Source, ss.Epoch)
		}
		if ss.MaxResidual > 1e-4 {
			t.Fatalf("source %d residual %v", ss.Source, ss.MaxResidual)
		}
	}
	if stats.AvgBatchLatency != stats.TotalBatchLatency/1 {
		t.Fatal("avg latency mismatch for one batch")
	}

	// Every base swap counts and is timed, the inline ones included.
	if err := svc.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats().Storage; st.Compactions != 1 || st.LastCompaction <= 0 {
		t.Fatalf("after CompactNow: %d compactions, last took %v; want 1, timed", st.Compactions, st.LastCompaction)
	}
}

func TestServiceClose(t *testing.T) {
	edges := serviceTestEdges(t, dynppr.ModelErdosRenyi, 40, 150, 9)
	g := dynppr.GraphFromEdges(edges)
	so := dynppr.DefaultServiceOptions()
	so.Options.Epsilon = 1e-4
	svc, err := dynppr.NewService(g, g.TopDegreeVertices(2), so)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal("double close must be a no-op")
	}
	if _, err := svc.ApplyBatch(dynppr.Batch{{U: 1, V: 2, Op: dynppr.Insert}}); !errors.Is(err, dynppr.ErrServiceClosed) {
		t.Fatalf("ApplyBatch after close: %v", err)
	}
	if err := svc.UpdateSources(context.Background(), []dynppr.VertexID{17}, nil); !errors.Is(err, dynppr.ErrServiceClosed) {
		t.Fatalf("UpdateSources add after close: %v", err)
	}
	if err := svc.UpdateSources(context.Background(), nil, []dynppr.VertexID{17}); !errors.Is(err, dynppr.ErrServiceClosed) {
		t.Fatalf("UpdateSources remove after close: %v", err)
	}
}

// An empty batch (or one with only no-op updates) must not republish
// snapshots: readers keep the same epoch.
func TestServiceNoOpBatchKeepsEpoch(t *testing.T) {
	edges := serviceTestEdges(t, dynppr.ModelErdosRenyi, 40, 150, 13)
	svc, sources := newTestService(t, edges, 1, 1e-4)
	before, err := svc.Info(sources[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ApplyBatch(dynppr.Batch{{U: 999, V: 998, Op: dynppr.Delete}}); err != nil {
		t.Fatal(err)
	}
	after, err := svc.Info(sources[0])
	if err != nil {
		t.Fatal(err)
	}
	if after.Epoch != before.Epoch {
		t.Fatalf("no-op batch changed epoch %d -> %d", before.Epoch, after.Epoch)
	}
}

// Tracker.TopK and Service.AppendTopK share the heap-based selection;
// cross-check it against a straightforward full sort, including exact score
// ties.
func TestTopKMatchesFullSort(t *testing.T) {
	// A star: every leaf points at the hub, so all leaves tie exactly.
	g := dynppr.NewGraph(0)
	for i := 1; i <= 9; i++ {
		if _, err := g.AddEdge(dynppr.VertexID(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := dynppr.NewTracker(g, 0, dynppr.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	est := tr.Estimates()
	ref := make([]dynppr.VertexScore, len(est))
	for v, s := range est {
		ref[v] = dynppr.VertexScore{Vertex: dynppr.VertexID(v), Score: s}
	}
	sort.Slice(ref, func(i, j int) bool {
		if ref[i].Score != ref[j].Score {
			return ref[i].Score > ref[j].Score
		}
		return ref[i].Vertex < ref[j].Vertex
	})
	for _, k := range []int{0, 1, 3, 5, 10, 50} {
		got := tr.TopK(k)
		want := ref
		if k < len(want) {
			want = want[:k]
		}
		if k == 0 && got != nil {
			t.Fatal("TopK(0) must be nil")
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: got %d entries, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("k=%d entry %d: got %+v, want %+v", k, i, got[i], want[i])
			}
		}
	}
}

// A tracked source is its pair of vectors plus what publishing them needs
// (two snapshot buffers, Top-K and dirty lists: ≈ 37 bytes per vertex). The
// scratch a push works in belongs to a worker's engine, so a further source
// brings none of its own: the live heap each one adds
// stays under 64 bytes per vertex.
func TestServiceHeapPerSource(t *testing.T) {
	const n = 200_000
	edges := serviceTestEdges(t, dynppr.ModelErdosRenyi, n, 3*n, 5)
	g := dynppr.GraphFromEdges(edges)
	sources := g.TopDegreeVertices(4)
	so := dynppr.DefaultServiceOptions()
	so.Options.Epsilon = 1e-3
	so.PoolWorkers = 1
	svc, err := dynppr.NewService(g, sources[:1], so)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })

	// Every measurement follows an effective batch, so each source has
	// published twice and owns both of its snapshot buffers.
	next := 0
	liveHeap := func() uint64 {
		t.Helper()
		e := edges[next]
		next++
		if res, err := svc.ApplyBatch(dynppr.Batch{{U: e.U, V: e.V, Op: dynppr.Delete}}); err != nil || res.Applied != 1 {
			t.Fatalf("batch: %+v, %v", res, err)
		}
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	for _, s := range sources[1:] {
		if err := svc.UpdateSources(context.Background(), []dynppr.VertexID{s}, nil); err != nil {
			t.Fatal(err)
		}
		after := liveHeap()
		perVertex := (float64(after) - float64(before)) / n
		t.Logf("source %d: +%.1f live heap bytes per vertex", s, perVertex)
		if perVertex >= 64 {
			t.Fatalf("source %d added %.1f live heap bytes per vertex, want < 64", s, perVertex)
		}
		before = after
	}
}
