package httpapi_test

import (
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"dynppr"
	"dynppr/internal/httpapi"
)

func testEdges(t *testing.T, n, m int, seed int64) []dynppr.Edge {
	t.Helper()
	edges, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: dynppr.ModelRMAT, Vertices: n, Edges: m, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return edges
}

// newTestAPI builds a Service over a synthetic graph and an httptest server
// with a Client pointed at it.
func newTestAPI(t *testing.T, nSources int) (*dynppr.Service, []dynppr.VertexID, *httpapi.Client) {
	t.Helper()
	edges := testEdges(t, 120, 700, 7)
	g := dynppr.GraphFromEdges(edges)
	sources := g.TopDegreeVertices(nSources)
	so := dynppr.DefaultServiceOptions()
	so.Options.Epsilon = 1e-4
	so.PoolWorkers = 2
	svc, err := dynppr.NewService(g, sources, so)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	ts := httptest.NewServer(httpapi.NewHandler(svc, httpapi.HandlerOptions{}))
	t.Cleanup(ts.Close)
	return svc, sources, httpapi.NewClient(ts.URL, ts.Client())
}

func wantStatus(t *testing.T, err error, status int) {
	t.Helper()
	apiErr, ok := err.(*httpapi.APIError)
	if !ok {
		t.Fatalf("want *APIError with status %d, got %T: %v", status, err, err)
	}
	if apiErr.StatusCode != status {
		t.Fatalf("want status %d, got %d (%s)", status, apiErr.StatusCode, apiErr.Message)
	}
}

func TestHealthz(t *testing.T) {
	svc, _, client := newTestAPI(t, 2)
	if err := client.Health(); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	wantStatus(t, client.Health(), http.StatusServiceUnavailable)
}

func TestTopKEndpoint(t *testing.T) {
	svc, sources, client := newTestAPI(t, 2)
	src := sources[0]
	got, err := client.TopK(src, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != 5 || len(got.Results) != 5 {
		t.Fatalf("bad topk shape: %+v", got)
	}
	if !got.Snapshot.Converged || got.Snapshot.Epoch != 1 || got.Snapshot.Source != src {
		t.Fatalf("bad snapshot meta: %+v", got.Snapshot)
	}
	// Must agree with the in-process read path exactly.
	want, _, err := svc.AppendTopK(nil, src, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got.Results[i].Vertex != want[i].Vertex || got.Results[i].Score != want[i].Score {
			t.Fatalf("entry %d: HTTP %+v vs Service %+v", i, got.Results[i], want[i])
		}
	}

	if _, err := client.TopK(9999, 5); err == nil {
		t.Fatal("unknown source must fail")
	} else {
		wantStatus(t, err, http.StatusNotFound)
	}
}

func TestEstimateEndpoint(t *testing.T) {
	svc, sources, client := newTestAPI(t, 2)
	src := sources[0]
	got, err := client.Estimate(src, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := svc.EstimateInfo(src, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != want || got.Vertex != 3 || !got.Snapshot.Converged {
		t.Fatalf("estimate mismatch: HTTP %+v vs Service %v", got, want)
	}
	if _, err := client.Estimate(9999, 3); err == nil {
		t.Fatal("unknown source must fail")
	} else {
		wantStatus(t, err, http.StatusNotFound)
	}
}

func TestQueryBatchEndpoint(t *testing.T) {
	_, sources, client := newTestAPI(t, 2)
	results, err := client.Query([]httpapi.Query{
		{Kind: httpapi.KindTopK, Source: sources[0], K: 3},
		{Kind: httpapi.KindEstimate, Source: sources[1], Vertex: 0},
		{Kind: httpapi.KindTopK, Source: 9999, K: 3},
		{Kind: "explode", Source: sources[0]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("want 4 results, got %d", len(results))
	}
	if results[0].TopK == nil || len(results[0].TopK.Results) != 3 {
		t.Fatalf("result 0: %+v", results[0])
	}
	if results[1].Estimate == nil || results[1].Estimate.Snapshot.Source != sources[1] {
		t.Fatalf("result 1: %+v", results[1])
	}
	// Per-query failures come back inline, not as a batch failure.
	if results[2].Error == "" || results[2].TopK != nil {
		t.Fatalf("result 2 should carry the unknown-source error: %+v", results[2])
	}
	if !strings.Contains(results[3].Error, "unknown query kind") {
		t.Fatalf("result 3: %+v", results[3])
	}

	if _, err := client.Query(nil); err == nil {
		t.Fatal("empty batch must fail")
	} else {
		wantStatus(t, err, http.StatusBadRequest)
	}
}

func TestEdgesEndpoint(t *testing.T) {
	svc, sources, client := newTestAPI(t, 2)
	src := sources[0]
	before, err := svc.Info(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.ApplyEdges([]httpapi.Update{
		{U: 200, V: src, Op: httpapi.OpInsert},
		{U: 200, V: src, Op: httpapi.OpInsert}, // duplicate: skipped
		{U: 201, V: 202, Op: httpapi.OpDelete}, // missing: skipped
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 || res.Skipped != 2 || res.Pushes <= 0 {
		t.Fatalf("bad edges response: %+v", res)
	}
	after, err := svc.Info(src)
	if err != nil {
		t.Fatal(err)
	}
	if after.Epoch != before.Epoch+1 {
		t.Fatalf("epoch %d -> %d, want one publication", before.Epoch, after.Epoch)
	}
	// The write is visible to subsequent HTTP reads.
	est, err := client.Estimate(src, 200)
	if err != nil {
		t.Fatal(err)
	}
	if est.Score <= 0 || est.Snapshot.Epoch != after.Epoch {
		t.Fatalf("estimate after write: %+v", est)
	}

	if _, err := client.ApplyEdges(nil); err == nil {
		t.Fatal("empty batch must fail")
	} else {
		wantStatus(t, err, http.StatusBadRequest)
	}
	if _, err := client.ApplyEdges([]httpapi.Update{{U: 1, V: 2, Op: "sideways"}}); err == nil {
		t.Fatal("bad op must fail")
	} else {
		wantStatus(t, err, http.StatusBadRequest)
	}
	if _, err := client.ApplyEdges([]httpapi.Update{{U: -1, V: 2, Op: httpapi.OpInsert}}); err == nil {
		t.Fatal("negative vertex must fail")
	} else {
		wantStatus(t, err, http.StatusBadRequest)
	}
}

func TestSourcesEndpoint(t *testing.T) {
	_, sources, client := newTestAPI(t, 2)
	got, err := client.Sources()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sources) {
		t.Fatalf("sources %v, want %d tracked", got, len(sources))
	}

	// Live add: the new source serves reads immediately after the call.
	withExtra, err := client.UpdateSources([]dynppr.VertexID{77}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(withExtra) != len(sources)+1 {
		t.Fatalf("after add: %v", withExtra)
	}
	top, err := client.TopK(77, 3)
	if err != nil {
		t.Fatal(err)
	}
	if top.Snapshot.Epoch != 1 || !top.Snapshot.Converged {
		t.Fatalf("cold-started snapshot: %+v", top.Snapshot)
	}

	// Duplicate add conflicts; unknown remove is 404.
	if _, err := client.UpdateSources([]dynppr.VertexID{77}, nil); err == nil {
		t.Fatal("duplicate add must fail")
	} else {
		wantStatus(t, err, http.StatusConflict)
	}
	if _, err := client.UpdateSources(nil, []dynppr.VertexID{5555}); err == nil {
		t.Fatal("unknown remove must fail")
	} else {
		wantStatus(t, err, http.StatusNotFound)
	}

	// Live remove: reads start failing with 404.
	shrunk, err := client.UpdateSources(nil, []dynppr.VertexID{77})
	if err != nil {
		t.Fatal(err)
	}
	if len(shrunk) != len(sources) {
		t.Fatalf("after remove: %v", shrunk)
	}
	if _, err := client.TopK(77, 3); err == nil {
		t.Fatal("read of removed source must fail")
	} else {
		wantStatus(t, err, http.StatusNotFound)
	}

	if _, err := client.UpdateSources(nil, nil); err == nil {
		t.Fatal("empty sources request must fail")
	} else {
		wantStatus(t, err, http.StatusBadRequest)
	}

	// A rejected batch must leave state untouched: the valid add rides with
	// a duplicate, the whole request 409s, and the valid source is NOT
	// tracked afterwards — so the client can retry the corrected request.
	if _, err := client.UpdateSources([]dynppr.VertexID{88, sources[0]}, nil); err == nil {
		t.Fatal("batch with duplicate must fail")
	} else {
		wantStatus(t, err, http.StatusConflict)
	}
	after, err := client.Sources()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range after {
		if s == 88 {
			t.Fatal("failed batch must not partially apply")
		}
	}
	// Same for a batch whose remove is unknown.
	if _, err := client.UpdateSources([]dynppr.VertexID{88}, []dynppr.VertexID{5555}); err == nil {
		t.Fatal("batch with unknown remove must fail")
	} else {
		wantStatus(t, err, http.StatusNotFound)
	}
	if _, err := client.TopK(88, 1); err == nil {
		t.Fatal("failed batch must not partially apply the add")
	}
	if _, err := client.UpdateSources([]dynppr.VertexID{-3}, nil); err == nil {
		t.Fatal("negative source id must fail")
	} else {
		wantStatus(t, err, http.StatusBadRequest)
	}
}

// TestOutOfRangeVertexIs400 pins the vertex-growth bound at the wire: an
// edge endpoint or a source id MaxVertexGrowth past the graph is a 400, and
// the request has no effect — its valid updates and sources included.
func TestOutOfRangeVertexIs400(t *testing.T) {
	svc, sources, client := newTestAPI(t, 1)
	before := svc.Stats()
	far := dynppr.VertexID(before.Vertices + 70_000)
	_, err := client.ApplyEdges([]httpapi.Update{{U: 1, V: 2, Op: "insert"}, {U: far, V: 3, Op: "insert"}})
	wantStatus(t, err, http.StatusBadRequest)
	add := dynppr.VertexID(0) // a valid addition riding along
	for slices.Contains(sources, add) {
		add++
	}
	_, err = client.UpdateSources([]dynppr.VertexID{add, far}, nil)
	wantStatus(t, err, http.StatusBadRequest)
	after := svc.Stats()
	if after.Vertices != before.Vertices || after.Batches != 0 || len(after.Sources) != len(sources) {
		t.Fatalf("a 400 took effect: %d -> %d vertices, %d batches, sources %v", before.Vertices, after.Vertices,
			after.Batches, svc.Sources())
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, sources, client := newTestAPI(t, 3)
	if _, err := client.TopK(sources[0], 3); err != nil {
		t.Fatal(err)
	}
	if _, err := client.ApplyEdges([]httpapi.Update{{U: 300, V: sources[0], Op: httpapi.OpInsert}}); err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Service.Batches != 1 || stats.Service.Vertices <= 0 || len(stats.Service.Sources) != 3 {
		t.Fatalf("service stats: %+v", stats.Service)
	}
	if stats.Service.LastBatchLatency < 0 || stats.Service.AvgBatchLatency <= 0 {
		t.Fatalf("latency stats: %+v", stats.Service)
	}
	topk := stats.HTTP["/topk"]
	if topk.Requests != 1 || topk.Errors != 0 || topk.MaxMicros <= 0 {
		t.Fatalf("/topk endpoint stats: %+v", topk)
	}
	edges := stats.HTTP["/edges"]
	if edges.Requests != 1 || edges.QPS <= 0 {
		t.Fatalf("/edges endpoint stats: %+v", edges)
	}
	// With on-demand off nothing coalesces reads; the field stays on the wire.
	if stats.Overload.Coalesced != 0 || stats.Service.OnDemand != nil {
		t.Fatalf("overload without on-demand: %+v", stats.Overload)
	}
	// Error accounting: a 404 counts as an error on its endpoint.
	if _, err := client.TopK(9999, 1); err == nil {
		t.Fatal("expected 404")
	}
	stats, err = client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.HTTP["/topk"]; got.Requests != 2 || got.Errors != 1 {
		t.Fatalf("/topk stats after 404: %+v", got)
	}
}

func TestMethodAndPayloadErrors(t *testing.T) {
	_, sources, client := newTestAPI(t, 1)
	_ = sources
	svcURL := clientBase(t, client)

	post, err := http.Post(svcURL+"/topk", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /topk = %d, want 405", post.StatusCode)
	}
	if allow := post.Header.Get("Allow"); allow != http.MethodGet {
		t.Fatalf("Allow = %q", allow)
	}

	bad, err := http.Post(svcURL+"/edges", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body = %d, want 400", bad.StatusCode)
	}

	unknown, err := http.Post(svcURL+"/edges", "application/json",
		strings.NewReader(`{"updates":[],"surprise":1}`))
	if err != nil {
		t.Fatal(err)
	}
	unknown.Body.Close()
	if unknown.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field = %d, want 400", unknown.StatusCode)
	}

	missing, err := http.Get(svcURL + "/topk")
	if err != nil {
		t.Fatal(err)
	}
	missing.Body.Close()
	if missing.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing source param = %d, want 400", missing.StatusCode)
	}

	badV, err := http.Get(svcURL + "/estimate?source=0&v=minus-one")
	if err != nil {
		t.Fatal(err)
	}
	badV.Body.Close()
	if badV.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad vertex param = %d, want 400", badV.StatusCode)
	}
}

// clientBase digs the test server base URL back out of a request, keeping
// the raw-HTTP tests on the same server the Client uses.
func clientBase(t *testing.T, c *httpapi.Client) string {
	t.Helper()
	return c.BaseURL()
}

// TestUpdateRoundTrip pins the wire conversion helpers.
func TestUpdateRoundTrip(t *testing.T) {
	batch := dynppr.Batch{
		{U: 1, V: 2, Op: dynppr.Insert},
		{U: 3, V: 4, Op: dynppr.Delete},
	}
	wire := httpapi.FromBatch(batch)
	if wire[0].Op != httpapi.OpInsert || wire[1].Op != httpapi.OpDelete {
		t.Fatalf("FromBatch: %+v", wire)
	}
	for i, w := range wire {
		u, err := w.ToUpdate()
		if err != nil {
			t.Fatal(err)
		}
		if u != batch[i] {
			t.Fatalf("round trip %d: %+v vs %+v", i, u, batch[i])
		}
	}
	if _, err := (httpapi.Update{U: 1, V: 2, Op: "nope"}).ToUpdate(); err == nil {
		t.Fatal("bad op must fail")
	}
	if _, err := (httpapi.Update{U: -4, V: 2, Op: httpapi.OpInsert}).ToUpdate(); err == nil {
		t.Fatal("negative id must fail")
	}
}

// TestScoresMatchOffline cross-checks the full HTTP read path against an
// offline tracker after a write.
func TestScoresMatchOffline(t *testing.T) {
	edges := testEdges(t, 100, 500, 3)
	g := dynppr.GraphFromEdges(edges)
	source := g.TopDegreeVertices(1)[0]
	so := dynppr.DefaultServiceOptions()
	so.Options.Epsilon = 1e-5
	svc, err := dynppr.NewService(g, []dynppr.VertexID{source}, so)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(httpapi.NewHandler(svc, httpapi.HandlerOptions{}))
	defer ts.Close()
	client := httpapi.NewClient(ts.URL, ts.Client())

	batch := dynppr.Batch{
		{U: 90, V: source, Op: dynppr.Insert},
		{U: 91, V: 90, Op: dynppr.Insert},
		{U: edges[0].U, V: edges[0].V, Op: dynppr.Delete},
	}
	if _, err := client.ApplyEdges(httpapi.FromBatch(batch)); err != nil {
		t.Fatal(err)
	}

	opts := dynppr.DefaultOptions()
	opts.Epsilon = 1e-5
	tr, err := dynppr.NewTracker(dynppr.GraphFromEdges(edges), source, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr.ApplyBatch(batch)

	for v := dynppr.VertexID(0); int(v) < 100; v += 7 {
		got, err := client.Estimate(source, v)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(got.Score - tr.Estimate(v)); d > 2*opts.Epsilon {
			t.Fatalf("vertex %d: HTTP %v vs tracker %v", v, got.Score, tr.Estimate(v))
		}
	}
}
