package httpapi_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"dynppr"
	"dynppr/internal/httpapi"
)

// FuzzHandlerBodies sends arbitrary bodies to the endpoints that decode one —
// POST /edges, /query and /sources — each input through a fresh handler over
// a small in-memory service. Whatever the body: no panic, no 5xx, a 4xx
// leaves the service as it was (batches, updates applied, vertices, the
// source list), and a 2xx body decodes into the endpoint's response type.
func FuzzHandlerBodies(f *testing.F) {
	edges, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: dynppr.ModelRMAT, Vertices: 64, Edges: 256, Seed: 5,
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct {
		endpoint byte
		body     string
	}{
		{0, `{"updates":[{"u":1,"v":2,"op":"insert"},{"u":3,"v":4,"op":"delete"}]}`},
		{1, `{"queries":[{"kind":"topk","source":0,"k":3},{"kind":"estimate","source":0,"vertex":5}]}`},
		{2, `{"add":[9],"remove":[0]}`},
		{0, `{"updates":[{"u":1,"v":2,"op":"insert"}],"extra":true}`},
		{2, `{"add":[9],"drop":[0]}`},
		{0, `{"updates":[{"u":-1,"v":2,"op":"insert"}]}`},
		{1, `{"queries":[{"kind":"estimate","source":-3,"vertex":-1}]}`},
		{2, `{"add":[-4]}`},
		{0, `{"updates":[{"u":2147483647,"v":2,"op":"insert"}]}`},
		{2, `{"add":[2147483647]}`},
		{2, `{"add":[9],"remove":[9]}`},
		{2, `{"add":[9,9]}`},
	} {
		f.Add(seed.endpoint, []byte(seed.body))
	}
	endpoints := []struct {
		path string
		resp func() any
	}{
		{"/edges", func() any { return new(httpapi.EdgesResponse) }},
		{"/query", func() any { return new(httpapi.QueryResponse) }},
		{"/sources", func() any { return new(httpapi.SourcesResponse) }},
	}
	f.Fuzz(func(t *testing.T, endpoint byte, body []byte) {
		g := dynppr.GraphFromEdges(edges)
		so := dynppr.DefaultServiceOptions()
		so.Options.Epsilon = 1e-3
		so.PoolWorkers = 1
		svc, err := dynppr.NewService(g, g.TopDegreeVertices(2), so)
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		h := httpapi.NewHandler(svc, httpapi.HandlerOptions{})
		ep := endpoints[int(endpoint)%len(endpoints)]
		before := svc.Stats()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, ep.path, bytes.NewReader(body)))

		switch status := w.Code; {
		case status >= 500:
			t.Fatalf("POST %s: %d %s", ep.path, status, w.Body)
		case status >= 400:
			after := svc.Stats()
			if after.Batches != before.Batches || after.UpdatesApplied != before.UpdatesApplied ||
				after.Vertices != before.Vertices || !slices.Equal(svc.Sources(), sourceIDs(before)) {
				t.Fatalf("POST %s answered %d but took effect: %+v -> %+v", ep.path, status, before, after)
			}
		case status >= 200 && status < 300:
			if err := json.Unmarshal(w.Body.Bytes(), ep.resp()); err != nil {
				t.Fatalf("POST %s: %d body does not decode: %v", ep.path, status, err)
			}
		}
	})
}

// sourceIDs lists the tracked sources a Stats snapshot reports.
func sourceIDs(st dynppr.ServiceStats) []dynppr.VertexID {
	out := make([]dynppr.VertexID, len(st.Sources))
	for i, ss := range st.Sources {
		out[i] = ss.Source
	}
	return out
}
