package httpapi_test

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dynppr"
	"dynppr/internal/httpapi"
	"dynppr/internal/power"
	"dynppr/internal/promexp"
)

// ringEdges is testEdges with a ring overlay, which keeps every vertex
// reachable: each cold query's push then does nontrivial work and advertises
// a positive epsilon, which the assertions below rely on.
func ringEdges(t *testing.T, n, m int, seed int64) []dynppr.Edge {
	t.Helper()
	edges := testEdges(t, n, m, seed)
	for v := 0; v < n; v++ {
		edges = append(edges, dynppr.Edge{U: dynppr.VertexID(v), V: dynppr.VertexID((v + 1) % n)})
	}
	return edges
}

// newOnDemandAPI builds a service with the given on-demand options behind an
// httptest server.
func newOnDemandAPI(t *testing.T, od dynppr.OnDemandOptions) (*dynppr.Service, []dynppr.VertexID, *httpapi.Client) {
	t.Helper()
	g := dynppr.GraphFromEdges(ringEdges(t, 120, 700, 7))
	sources := g.TopDegreeVertices(2)
	so := dynppr.DefaultServiceOptions()
	so.Options.Epsilon = 1e-5
	so.PoolWorkers = 2
	so.OnDemand = od
	svc, err := dynppr.NewService(g, sources, so)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	ts := httptest.NewServer(httpapi.NewHandler(svc, httpapi.HandlerOptions{}))
	t.Cleanup(ts.Close)
	return svc, sources, httpapi.NewClient(ts.URL, ts.Client())
}

// untrackedVertex picks a vertex that is not in sources.
func untrackedVertex(sources []dynppr.VertexID) dynppr.VertexID {
	for v := dynppr.VertexID(0); ; v++ {
		tracked := false
		for _, s := range sources {
			if s == v {
				tracked = true
				break
			}
		}
		if !tracked {
			return v
		}
	}
}

// TestUnknownSourceStatusTable is the 404-consistency table: with on-demand
// off, every read path answers an untracked source with a clean 404 (never a
// 500), inline batch results included; with on-demand on, the same requests
// succeed with approx answers carrying an error bound. Either way a batched
// read with a negative vertex id is the inline 400 the GET endpoints give it.
func TestUnknownSourceStatusTable(t *testing.T) {
	malformedIDs := func(t *testing.T, client *httpapi.Client, source dynppr.VertexID) {
		t.Helper()
		results, err := client.Query([]httpapi.Query{
			{Kind: httpapi.KindTopK, Source: -1, K: 3},
			{Kind: httpapi.KindEstimate, Source: -1, Vertex: 1},
			{Kind: httpapi.KindEstimate, Source: source, Vertex: -1},
		})
		if err != nil {
			t.Fatalf("batched query must not fail as a whole: %v", err)
		}
		for i, r := range results {
			if r.Error == "" || r.Status != http.StatusBadRequest || r.TopK != nil || r.Estimate != nil {
				t.Fatalf("malformed-id batch result %d: want inline status 400, got %+v", i, r)
			}
		}
	}
	t.Run("ondemand-off", func(t *testing.T) {
		_, sources, client := newTestAPI(t, 2)
		missing := dynppr.VertexID(9999)

		if _, err := client.TopK(missing, 5); err == nil {
			t.Fatal("/topk for untracked source must fail with on-demand off")
		} else {
			wantStatus(t, err, http.StatusNotFound)
		}
		if _, err := client.Estimate(missing, 0); err == nil {
			t.Fatal("/estimate for untracked source must fail with on-demand off")
		} else {
			wantStatus(t, err, http.StatusNotFound)
		}
		results, err := client.Query([]httpapi.Query{
			{Kind: httpapi.KindTopK, Source: missing, K: 3},
			{Kind: httpapi.KindEstimate, Source: missing, Vertex: 1},
			{Kind: httpapi.KindTopK, Source: sources[0], K: 3},
			{Kind: "explode", Source: sources[0]},
		})
		if err != nil {
			t.Fatalf("batched query must not fail as a whole: %v", err)
		}
		for i, wantStatus := range map[int]int{0: http.StatusNotFound, 1: http.StatusNotFound, 3: http.StatusBadRequest} {
			if results[i].Error == "" || results[i].Status != wantStatus {
				t.Fatalf("batch result %d: want inline status %d, got %+v", i, wantStatus, results[i])
			}
		}
		if results[2].TopK == nil || results[2].Status != 0 || results[2].TopK.Approx {
			t.Fatalf("batch result 2 (tracked): %+v", results[2])
		}
		malformedIDs(t, client, sources[0])
	})

	t.Run("ondemand-on", func(t *testing.T) {
		_, sources, client := newOnDemandAPI(t, dynppr.OnDemandOptions{Enabled: true, Epsilon: 1e-4})
		cold := untrackedVertex(sources)

		top, err := client.TopK(cold, 5)
		if err != nil {
			t.Fatalf("/topk for untracked source must succeed with on-demand on: %v", err)
		}
		if !top.Approx || top.Epsilon <= 0 || len(top.Results) != 5 {
			t.Fatalf("approx topk: %+v", top)
		}
		if top.Snapshot.Epoch != 0 || !top.Snapshot.Converged {
			t.Fatalf("approx snapshot meta: %+v", top.Snapshot)
		}
		est, err := client.Estimate(cold, 0)
		if err != nil {
			t.Fatalf("/estimate for untracked source: %v", err)
		}
		if !est.Approx || est.Epsilon <= 0 {
			t.Fatalf("approx estimate: %+v", est)
		}
		results, err := client.Query([]httpapi.Query{
			{Kind: httpapi.KindTopK, Source: cold, K: 3},
			{Kind: httpapi.KindEstimate, Source: cold, Vertex: 1},
			{Kind: httpapi.KindTopK, Source: sources[0], K: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		if results[0].TopK == nil || !results[0].TopK.Approx || results[0].Status != 0 {
			t.Fatalf("batch approx topk: %+v", results[0])
		}
		if results[1].Estimate == nil || !results[1].Estimate.Approx {
			t.Fatalf("batch approx estimate: %+v", results[1])
		}
		if results[2].TopK == nil || results[2].TopK.Approx {
			t.Fatalf("batch tracked topk: %+v", results[2])
		}
		// Exact-vertex requests never 500 either: a source beyond the graph
		// is an isolated vertex with an exact trivial answer — no walk can
		// reach it, and its own walk contributes exactly α = 0.15.
		far, err := client.TopK(100_000, 3)
		if err != nil {
			t.Fatalf("/topk far outside the graph: %v", err)
		}
		if !far.Approx || len(far.Results) != 1 || far.Results[0].Score != 0.15 {
			t.Fatalf("out-of-graph topk: %+v", far)
		}
		malformedIDs(t, client, cold)
	})
}

// TestHTTPOnDemandOracle is the acceptance check at the wire level: an
// untracked /topk answer's scores are within its advertised epsilon of the
// power-iteration reverse (contribution) oracle — the same quantity a
// tracked /topk serves.
func TestHTTPOnDemandOracle(t *testing.T) {
	svc, sources, client := newOnDemandAPI(t, dynppr.OnDemandOptions{
		Enabled: true, Epsilon: 1e-5,
	})
	_ = svc
	g := dynppr.GraphFromEdges(ringEdges(t, 120, 700, 7))
	cold := untrackedVertex(sources)
	oracle, err := power.Reverse(g.Snapshot(), cold, power.Options{
		Alpha: 0.15, Tolerance: 1e-12, MaxIterations: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	top, err := client.TopK(cold, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !top.Approx || top.Epsilon <= 0 {
		t.Fatalf("want approx answer with a bound, got %+v", top)
	}
	for _, vs := range top.Results {
		if diff := math.Abs(vs.Score - oracle[vs.Vertex]); diff > top.Epsilon+1e-12 {
			t.Fatalf("vertex %d: |%g - %g| = %g exceeds advertised epsilon %g",
				vs.Vertex, vs.Score, oracle[vs.Vertex], diff, top.Epsilon)
		}
	}
}

// TestHTTPOnDemandPromotionMetrics drives the promotion funnel over HTTP and
// checks it is observable: the promoted source appears in /stats sources,
// later reads take the exact path, and the new promexp families expose the
// counters.
func TestHTTPOnDemandPromotionMetrics(t *testing.T) {
	_, sources, client := newOnDemandAPI(t, dynppr.OnDemandOptions{
		Enabled: true, Epsilon: 1e-3, PromoteAfter: 3, MaxAutoSources: 4,
	})
	cold := untrackedVertex(sources)
	for i := 0; i < 3; i++ {
		if _, err := client.TopK(cold, 5); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	tracked, err := client.Sources()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range tracked {
		found = found || s == cold
	}
	if !found {
		t.Fatalf("source %d missing from /sources after %d queries: %v", cold, 3, tracked)
	}
	// Subsequent reads use the exact tracked path.
	top, err := client.TopK(cold, 5)
	if err != nil {
		t.Fatal(err)
	}
	if top.Approx || top.Snapshot.Epoch == 0 {
		t.Fatalf("post-promotion read still approximate: %+v", top)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	od := st.Service.OnDemand
	if od == nil || od.Promotions != 1 || od.Queries != 3 || od.AutoSources != 1 {
		t.Fatalf("on-demand stats: %+v", od)
	}
	text, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	fams, err := promexp.ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("metrics do not parse: %v", err)
	}
	byName := map[string]promexp.Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	for name, want := range map[string]float64{
		"dppr_ondemand_queries_total": 3,
		"dppr_promotions_total":       1,
		"dppr_evictions_total":        0,
		"dppr_auto_sources":           1,
	} {
		f, ok := byName[name]
		if !ok {
			t.Fatalf("family %s missing from /metrics", name)
		}
		if len(f.Samples) != 1 || f.Samples[0].Value != want {
			t.Fatalf("family %s: want %g, got %+v", name, want, f.Samples)
		}
	}
	for _, name := range []string{
		"dppr_ondemand_snapshot_builds_total",
		"dppr_ondemand_seconds_total", "dppr_ondemand_last_seconds", "dppr_ondemand_candidates",
	} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("family %s missing from /metrics", name)
		}
	}
}

// TestHTTPOnDemandBudgetAndCache exercises the concurrency-tier wire
// surface: the cached flag on repeat reads, batched /query on the shared
// entry, the stats fields and metric families — and that the wire has no
// per-request accuracy knob: budget_ms is an unknown parameter on the GET
// endpoints and an unknown field in a /query body.
func TestHTTPOnDemandBudgetAndCache(t *testing.T) {
	_, sources, client := newOnDemandAPI(t, dynppr.OnDemandOptions{
		Enabled: true, Epsilon: 1e-4,
	})
	cold := untrackedVertex(sources)

	first, err := client.TopK(cold, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Approx || first.Cached {
		t.Fatalf("first cold read: %+v", first)
	}
	repeat, err := client.TopK(cold, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !repeat.Cached {
		t.Fatalf("repeat cold read not served from cache: %+v", repeat)
	}
	for i := range first.Results {
		if first.Results[i] != repeat.Results[i] {
			t.Fatalf("cached result %d diverged: %+v vs %+v", i, repeat.Results[i], first.Results[i])
		}
	}

	// budget_ms is not a knob: like any unknown query parameter it is ignored
	// and the answer is the one coarse answer, bit for bit...
	resp, err := http.Get(client.BaseURL() + "/topk?source=" + strconv.Itoa(int(cold)) + "&k=8&budget_ms=5")
	if err != nil {
		t.Fatal(err)
	}
	var budgeted httpapi.TopKResult
	err = json.NewDecoder(resp.Body).Decode(&budgeted)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/topk with budget_ms: status %d, decode error %v", resp.StatusCode, err)
	}
	if !budgeted.Cached || math.Float64bits(budgeted.Epsilon) != math.Float64bits(first.Epsilon) ||
		!slices.Equal(budgeted.Results, first.Results) {
		t.Fatalf("/topk with budget_ms: %+v, want the cached coarse answer %+v", budgeted, first)
	}
	// ...and like any unknown body field it fails the whole /query request.
	resp, err = http.Post(client.BaseURL()+"/query", "application/json", strings.NewReader(
		`{"queries":[{"kind":"topk","source":`+strconv.Itoa(int(cold))+`,"k":4,"budget_ms":5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/query with budget_ms: status %d, want 400", resp.StatusCode)
	}

	// Batched queries read the same cached entry.
	results, err := client.Query([]httpapi.Query{
		{Kind: httpapi.KindTopK, Source: cold, K: 4},
		{Kind: httpapi.KindEstimate, Source: cold, Vertex: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].TopK == nil || !results[0].TopK.Cached || !slices.Equal(results[0].TopK.Results, first.Results[:4]) {
		t.Fatalf("batched topk: %+v", results[0])
	}
	if results[1].Estimate == nil || !results[1].Estimate.Approx || !results[1].Estimate.Cached {
		t.Fatalf("batched estimate: %+v", results[1])
	}

	// The stats fields and metric families are populated.
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	od := st.Service.OnDemand
	if od == nil || od.ColdPushes == 0 || od.CacheHits == 0 || od.CacheCapacity != 256 ||
		od.CacheEntries == 0 || od.PoolWorkers != runtime.GOMAXPROCS(0) || od.PoolDepth != 0 ||
		od.CacheAnswerEntries < int64(od.CacheEntries) || od.CacheBytes < 12*od.CacheAnswerEntries {
		t.Fatalf("on-demand concurrency stats not populated: %+v", od)
	}
	// The one coalescer left is the on-demand tier's; overload reports it.
	if st.Overload.Coalesced != od.Coalesced {
		t.Fatalf("overload.coalesced = %d, service.ondemand.coalesced = %d", st.Overload.Coalesced, od.Coalesced)
	}
	text, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	fams, err := promexp.ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("metrics do not parse: %v", err)
	}
	byName := map[string]bool{}
	for _, f := range fams {
		byName[f.Name] = true
	}
	for _, name := range []string{
		"dppr_ondemand_cold_pushes_total", "dppr_ondemand_cache_hits_total",
		"dppr_ondemand_cache_misses_total", "dppr_ondemand_coalesced_total",
		"dppr_ondemand_cache_entries",
		"dppr_ondemand_pool_workers", "dppr_ondemand_pool_depth",
		"dppr_ondemand_cache_answer_entries", "dppr_ondemand_cache_bytes",
	} {
		if !byName[name] {
			t.Fatalf("family %s missing from /metrics", name)
		}
	}
}
