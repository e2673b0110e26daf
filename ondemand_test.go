package dynppr_test

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"dynppr"
)

// odTestEdges generates an R-MAT edge list with a ring overlay. The overlay
// keeps every vertex reachable, so every probe's push does nontrivial work
// and advertises a positive epsilon (an unreachable source would be answered
// exactly, with epsilon 0, and trip the positivity assertions below).
func odTestEdges(t *testing.T, vertices, edges int, seed int64) []dynppr.Edge {
	t.Helper()
	list, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Name: "od-rmat", Model: dynppr.ModelRMAT, Vertices: vertices, Edges: edges, Seed: seed,
	})
	if err != nil {
		t.Fatalf("GenerateEdges: %v", err)
	}
	for v := 0; v < vertices; v++ {
		list = append(list, dynppr.Edge{U: dynppr.VertexID(v), V: dynppr.VertexID((v + 1) % vertices)})
	}
	return list
}

// TestOnDemandPromotionLifecycle drives the full admission funnel: a cold
// source queried T times is promoted into Sources(), an over-capacity auto
// set evicts its coldest member, and reads of an evicted source fall back to
// the on-demand path — never an error.
func TestOnDemandPromotionLifecycle(t *testing.T) {
	edges := odTestEdges(t, 80, 400, 7)
	g := dynppr.GraphFromEdges(edges)
	manual := g.TopDegreeVertices(1)
	so := dynppr.DefaultServiceOptions()
	so.OnDemand = dynppr.OnDemandOptions{
		Enabled: true, Epsilon: 1e-3, PromoteAfter: 3, MaxAutoSources: 2,
	}
	svc, err := dynppr.NewService(g, manual, so)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	defer svc.Close()

	tracked := func(v dynppr.VertexID) bool {
		for _, s := range svc.Sources() {
			if s == v {
				return true
			}
		}
		return false
	}
	queryN := func(src dynppr.VertexID, n int) dynppr.QueryInfo {
		var last dynppr.QueryInfo
		for i := 0; i < n; i++ {
			_, qi, err := svc.QueryTopKCtx(context.Background(), src, 5)
			if err != nil {
				t.Fatalf("QueryTopKCtx(%d) #%d: %v", src, i, err)
			}
			last = qi
		}
		return last
	}

	var s1, s2, s3 dynppr.VertexID = 11, 22, 33
	if tracked(s1) || tracked(s2) || tracked(s3) {
		t.Fatal("test sources unexpectedly tracked at start")
	}

	// Below the threshold the source stays approximate. Keep the first
	// answer to compare against the exact one after promotion.
	approxTop, aqi, err := svc.QueryTopKCtx(context.Background(), s1, 5)
	if err != nil {
		t.Fatalf("QueryTopKCtx(%d): %v", s1, err)
	}
	if !aqi.Approx || aqi.Promoted {
		t.Fatalf("pre-threshold query: approx=%v promoted=%v", aqi.Approx, aqi.Promoted)
	}
	if qi := queryN(s1, 1); !qi.Approx || qi.Promoted {
		t.Fatalf("pre-threshold query: approx=%v promoted=%v", qi.Approx, qi.Promoted)
	}
	// The T-th query promotes.
	if qi := queryN(s1, 1); !qi.Promoted {
		t.Fatal("query #3 did not promote")
	}
	if !tracked(s1) {
		t.Fatalf("source %d missing from Sources() after promotion", s1)
	}
	// Subsequent reads take the exact path and do not advance the
	// on-demand query counter.
	before := svc.Stats().OnDemand.Queries
	if _, qi, err := svc.QueryTopKCtx(context.Background(), s1, 5); err != nil || qi.Approx {
		t.Fatalf("post-promotion read: err=%v approx=%v", err, qi.Approx)
	}
	if after := svc.Stats().OnDemand.Queries; after != before {
		t.Fatalf("exact read advanced on-demand queries: %d -> %d", before, after)
	}
	// Promotion must not change what an answer means: the pre-promotion
	// approximate scores agree with the post-promotion exact ones within the
	// two advertised bounds. (Regression test — the on-demand path once
	// computed the forward vector π_s while tracked sources serve the
	// contribution vector, so answers for the same source jumped at
	// promotion.)
	for _, vs := range approxTop {
		exact, info, err := svc.EstimateInfo(s1, vs.Vertex)
		if err != nil {
			t.Fatalf("EstimateInfo(%d,%d): %v", s1, vs.Vertex, err)
		}
		if d := math.Abs(vs.Score - exact); d > aqi.Snapshot.Epsilon+info.Epsilon+1e-12 {
			t.Fatalf("promotion changed the answer at vertex %d: approx %g vs exact %g (diff %g > %g+%g)",
				vs.Vertex, vs.Score, exact, d, aqi.Snapshot.Epsilon, info.Epsilon)
		}
	}

	queryN(s2, 3)
	if !tracked(s2) {
		t.Fatalf("source %d not promoted", s2)
	}
	// Keep s2 warm so s1 is the coldest auto source, then promote s3 to
	// force an eviction (capacity 2).
	queryN(s2, 1)
	if qi := queryN(s3, 3); !qi.Promoted {
		t.Fatal("source s3 not promoted under capacity pressure")
	}
	if tracked(s1) {
		t.Fatalf("coldest auto source %d survived capacity pressure", s1)
	}
	if !tracked(s2) || !tracked(s3) {
		t.Fatalf("warm auto sources evicted: s2=%v s3=%v", tracked(s2), tracked(s3))
	}
	if !tracked(manual[0]) {
		t.Fatal("manually added source was evicted")
	}
	st := svc.Stats().OnDemand
	if st.Promotions != 3 || st.Evictions != 1 {
		t.Fatalf("promotions=%d evictions=%d, want 3 and 1", st.Promotions, st.Evictions)
	}
	if st.AutoSources != 2 {
		t.Fatalf("auto sources=%d, want 2", st.AutoSources)
	}

	// The evicted source falls back to approximate answers, never errors.
	if _, qi, err := svc.QueryTopKCtx(context.Background(), s1, 5); err != nil || !qi.Approx {
		t.Fatalf("evicted-source read: err=%v approx=%v", err, qi.Approx)
	}
	if _, qi, err := svc.QueryEstimateCtx(context.Background(), s1, 0); err != nil || !qi.Approx {
		t.Fatalf("evicted-source estimate: err=%v approx=%v", err, qi.Approx)
	}

	// A source outside the graph is still answerable, exactly: no walk can
	// reach an isolated vertex, and its own walk contributes exactly α.
	// Promotion cannot improve an exact answer, and tracking the id would
	// grow the graph to it: however often it is read, it is counted as a
	// query and nothing else. (Regression test — PromoteAfter reads of an
	// out-of-graph id used to add it as a source, and with it every vertex
	// up to it.)
	far := dynppr.VertexID(10_000)
	was, sources := svc.Stats(), svc.Sources()
	for i := 0; i < 2*so.OnDemand.PromoteAfter; i++ {
		est, qi, err := svc.QueryEstimateCtx(context.Background(), far, far)
		if err != nil || !qi.Approx || qi.Promoted || qi.Snapshot.Epsilon != 0 || est != so.Options.Alpha {
			t.Fatalf("out-of-graph source read #%d: est=%g (want alpha %g) approx=%v promoted=%v epsilon=%g err=%v",
				i, est, so.Options.Alpha, qi.Approx, qi.Promoted, qi.Snapshot.Epsilon, err)
		}
		top, _, err := svc.QueryTopKCtx(context.Background(), far, 5)
		if err != nil || len(top) != 1 || top[0] != (dynppr.VertexScore{Vertex: far, Score: so.Options.Alpha}) {
			t.Fatalf("out-of-graph source top-k #%d: %v err=%v", i, top, err)
		}
	}
	now := svc.Stats()
	if now.Vertices != was.Vertices || !slices.Equal(svc.Sources(), sources) {
		t.Fatalf("out-of-graph reads grew the service: vertices %d -> %d, sources %v -> %v",
			was.Vertices, now.Vertices, sources, svc.Sources())
	}
	if od, was := now.OnDemand, was.OnDemand; od.Promotions != was.Promotions || od.Candidates != was.Candidates ||
		od.Queries != was.Queries+int64(4*so.OnDemand.PromoteAfter) {
		t.Fatalf("out-of-graph reads: promotions %d -> %d, candidates %d -> %d, queries %d -> %d (want +%d)",
			was.Promotions, od.Promotions, was.Candidates, od.Candidates, was.Queries, od.Queries, 4*so.OnDemand.PromoteAfter)
	}
}

// Tracking a vertex the graph already has leaves the graph — and so every
// pinned view and cached cold answer — as it was: a promotion must not cost
// the other cold sources their cache. (Regression test — every source addition used
// to advance the graph generation "in case" the cold start had grown the
// graph, so with PromoteAfter set each promotion dropped all cached answers
// and sent the next cold read through the pipeline for a new view of an
// unchanged graph.) An id beyond the graph does grow it, and does invalidate.
func TestPromotionKeepsColdCache(t *testing.T) {
	edges := odTestEdges(t, 80, 400, 7)
	g := dynppr.GraphFromEdges(edges)
	so := dynppr.DefaultServiceOptions()
	so.OnDemand = dynppr.OnDemandOptions{Enabled: true, Epsilon: 1e-3, PromoteAfter: 3}
	svc, err := dynppr.NewService(g, g.TopDegreeVertices(1), so)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	defer svc.Close()
	var a, b dynppr.VertexID = 11, 22

	first, fqi, err := svc.QueryTopKCtx(context.Background(), b, 5)
	if err != nil || !fqi.Approx || fqi.Cached {
		t.Fatalf("first read of %d: err=%v approx=%v cached=%v", b, err, fqi.Approx, fqi.Cached)
	}
	for i := 0; i < so.OnDemand.PromoteAfter; i++ {
		if _, _, err := svc.QueryTopKCtx(context.Background(), a, 5); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Info(a); err != nil {
		t.Fatalf("source %d not promoted: %v", a, err)
	}
	was := svc.Stats().OnDemand
	again, qi, err := svc.QueryTopKCtx(context.Background(), b, 5)
	if err != nil || !qi.Cached {
		t.Fatalf("read of %d after promoting %d: err=%v cached=%v", b, a, err, qi.Cached)
	}
	if now := svc.Stats().OnDemand; now.SnapshotBuilds != 1 || now.ColdPushes != was.ColdPushes {
		t.Fatalf("promotion of an existing vertex cost a view or a push: builds %d (want 1), cold pushes %d -> %d",
			now.SnapshotBuilds, was.ColdPushes, now.ColdPushes)
	}
	if math.Float64bits(qi.Snapshot.Epsilon) != math.Float64bits(fqi.Snapshot.Epsilon) || len(again) != len(first) {
		t.Fatalf("cached answer differs: epsilon %g vs %g, %d vs %d entries", qi.Snapshot.Epsilon, fqi.Snapshot.Epsilon, len(again), len(first))
	}
	for i := range first {
		if again[i].Vertex != first[i].Vertex || math.Float64bits(again[i].Score) != math.Float64bits(first[i].Score) {
			t.Fatalf("cached answer differs at %d: %v vs %v", i, again[i], first[i])
		}
	}

	vertices := svc.Stats().Vertices
	if err := svc.UpdateSources(context.Background(), []dynppr.VertexID{10_000}, nil); err != nil {
		t.Fatal(err)
	}
	if _, qi, err := svc.QueryTopKCtx(context.Background(), b, 5); err != nil || qi.Cached {
		t.Fatalf("read of %d after the graph grew: err=%v cached=%v", b, err, qi.Cached)
	}
	if now := svc.Stats(); now.Vertices <= vertices || now.OnDemand.SnapshotBuilds != 2 {
		t.Fatalf("UpdateSources beyond the graph: vertices %d -> %d, view builds %d (want 2)",
			vertices, now.Vertices, now.OnDemand.SnapshotBuilds)
	}
}

// TestColdCacheFollowsGraphVersion pins what invalidates a cached cold
// answer: a logical change of the graph, and nothing else. A compaction
// swaps the base and a batch of duplicate inserts and missing deletes is
// refused whole; neither moves Graph.Version, so the answer stays cached and
// no view is rebuilt. An effective batch moves it: the next read misses and
// builds one new view.
func TestColdCacheFollowsGraphVersion(t *testing.T) {
	edges := odTestEdges(t, 80, 400, 7)
	g := dynppr.GraphFromEdges(edges)
	so := dynppr.DefaultServiceOptions()
	so.OnDemand = dynppr.OnDemandOptions{Enabled: true, Epsilon: 1e-3}
	svc, err := dynppr.NewService(g, g.TopDegreeVertices(1), so)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	defer svc.Close()
	const cold dynppr.VertexID = 22
	read := func(at string, wantCached bool, wantBuilds int64) {
		t.Helper()
		_, qi, err := svc.QueryTopKCtx(context.Background(), cold, 5)
		if err != nil || qi.Cached != wantCached {
			t.Fatalf("%s: err=%v cached=%v, want cached=%v", at, err, qi.Cached, wantCached)
		}
		if builds := svc.Stats().OnDemand.SnapshotBuilds; builds != wantBuilds {
			t.Fatalf("%s: %d view builds, want %d", at, builds, wantBuilds)
		}
	}
	read("first read", false, 1)
	read("repeat", true, 1)

	// A write that leaves deltas behind, so the compaction has work to do.
	e := edges[0]
	batch := dynppr.Batch{{U: e.U, V: e.V, Op: dynppr.Delete}, {U: e.V, V: e.U + 1, Op: dynppr.Insert}}
	if res, err := svc.ApplyBatch(batch); err != nil || res.Applied == 0 {
		t.Fatalf("effective batch: applied %d, err %v", res.Applied, err)
	}
	read("after an effective batch", false, 2)
	if svc.Stats().Storage.DeltaEdges == 0 {
		t.Fatal("setup: the effective batch left no delta to compact")
	}
	compactions := svc.Stats().Storage.Compactions
	if err := svc.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if svc.Stats().Storage.Compactions != compactions+1 {
		t.Fatal("setup: CompactNow did not swap the base")
	}
	read("after CompactNow", true, 2)

	noop := dynppr.Batch{{U: e.V, V: e.U + 1, Op: dynppr.Insert}, {U: e.U, V: e.V, Op: dynppr.Delete}}
	if res, err := svc.ApplyBatch(noop); err != nil || res.Applied != 0 {
		t.Fatalf("no-op batch: applied %d, err %v", res.Applied, err)
	}
	read("after a batch of refused updates", true, 2)
}

// TestUnknownSourceErrorIdentity pins the cross-layer error contract:
// every read path reports an untracked source with an error satisfying
// errors.Is(err, ErrUnknownSource) — TrackerSet included, which used to
// return an ad-hoc string error.
func TestUnknownSourceErrorIdentity(t *testing.T) {
	edges := odTestEdges(t, 40, 200, 3)

	ts, err := dynppr.NewTrackerSet(dynppr.GraphFromEdges(edges), []dynppr.VertexID{0}, dynppr.DefaultOptions())
	if err != nil {
		t.Fatalf("NewTrackerSet: %v", err)
	}
	if _, err := ts.Estimate(39, 1); !errors.Is(err, dynppr.ErrUnknownSource) {
		t.Fatalf("TrackerSet.Estimate: %v does not wrap ErrUnknownSource", err)
	}

	svc, err := dynppr.NewService(dynppr.GraphFromEdges(edges), []dynppr.VertexID{0}, dynppr.DefaultServiceOptions())
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	defer svc.Close()
	unknown := dynppr.VertexID(39)
	checks := map[string]error{}
	_, _, e2 := svc.AppendTopK(nil, unknown, 5)
	checks["Service.AppendTopK"] = e2
	_, _, e3 := svc.EstimatesInfo(unknown)
	checks["Service.EstimatesInfo"] = e3
	_, e4 := svc.Info(unknown)
	checks["Service.Info"] = e4
	_, _, e6 := svc.EstimateInfo(unknown, 0)
	checks["Service.EstimateInfo"] = e6
	checks["Service.UpdateSources"] = svc.UpdateSources(context.Background(), nil, []dynppr.VertexID{unknown})
	// With on-demand disabled the Query entry points keep the same error.
	_, _, e7 := svc.QueryTopKCtx(context.Background(), unknown, 5)
	checks["Service.QueryTopKCtx"] = e7
	_, _, e8 := svc.QueryEstimateCtx(context.Background(), unknown, 0)
	checks["Service.QueryEstimateCtx"] = e8
	for name, err := range checks {
		if !errors.Is(err, dynppr.ErrUnknownSource) {
			t.Errorf("%s: %v does not wrap ErrUnknownSource", name, err)
		}
	}
}

// TestOnDemandSnapshotTouchedProportional pins the cost model of the cold
// query's setup step structurally: after a small batch dirties a handful of
// vertices, the next cold query's epoch-pinned view must layer only those
// vertices' delta segments over the shared CSR base — not rebuild a full
// CSR. LastSnapshotDeltaEdges is exactly the entries the view copied, so it
// must scale with the batch, not with the graph.
func TestOnDemandSnapshotTouchedProportional(t *testing.T) {
	const vertices = 20_000
	edges, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: dynppr.ModelRMAT, Vertices: vertices, Edges: 5 * vertices, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := dynppr.DefaultOptions()
	opts.Epsilon = 1e-4
	g := dynppr.GraphFromEdges(edges)
	tracked := g.TopDegreeVertices(1)[0]
	// The batch below stays far under the compaction threshold, so the
	// measured delta cost is the batch's own footprint, not whatever
	// survived a background merge.
	svc, err := dynppr.NewService(g, []dynppr.VertexID{tracked}, dynppr.ServiceOptions{
		Options: opts, PoolWorkers: 1,
		OnDemand: dynppr.OnDemandOptions{Enabled: true, Epsilon: 1e-4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	cold := dynppr.GraphFromEdges(edges).TopDegreeVertices(16)[15]

	// Cold query against the untouched graph: FromEdges built a pure CSR
	// base, so the pinned view must report zero delta entries.
	if _, _, err := svc.QueryTopKCtx(context.Background(), cold, 10); err != nil {
		t.Fatal(err)
	}
	stats := svc.Stats()
	if stats.OnDemand == nil {
		t.Fatal("on-demand stats missing")
	}
	if got := stats.OnDemand.LastSnapshotDeltaEdges; got != 0 {
		t.Fatalf("compacted-base snapshot reports %d delta entries, want 0", got)
	}
	builds := stats.OnDemand.SnapshotBuilds

	// A 50-update batch touches at most 100 vertices. Each effective update
	// adds 2 delta entries and each first touch of a vertex materializes
	// its adjacency, so the view's delta cost is bounded by the touched
	// vertices' degrees — here tail vertices of the R-MAT skew, so orders
	// of magnitude below the 2(n+m) a full CSR rebuild would copy.
	const batchSize = 50
	batch := make(dynppr.Batch, 0, batchSize)
	for i := 0; i < batchSize; i++ {
		batch = append(batch, dynppr.Update{
			U:  dynppr.VertexID(vertices - 1 - i*13),
			V:  dynppr.VertexID(vertices - 2 - i*17),
			Op: dynppr.Insert,
		})
	}
	if _, err := svc.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.QueryTopKCtx(context.Background(), cold, 10); err != nil {
		t.Fatal(err)
	}
	stats = svc.Stats()
	if stats.OnDemand.SnapshotBuilds <= builds {
		t.Fatal("mutation did not force a fresh on-demand snapshot")
	}
	delta := stats.OnDemand.LastSnapshotDeltaEdges
	if delta == 0 {
		t.Fatal("post-batch snapshot reports no delta entries: view is not layering over the base")
	}
	full := int64(2 * (vertices + len(edges)))
	if delta >= full/100 {
		t.Fatalf("snapshot copied %d delta entries — not touched-proportional against a full rebuild's %d", delta, full)
	}
}
