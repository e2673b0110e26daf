package httpapi_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynppr"
	"dynppr/internal/httpapi"
)

// TestSourcesPostIsAllOrNothing drives POST /sources from concurrent
// writers against a single-slot pipeline and a 200 µs admission timeout, so
// most requests shed, and pins that every 4xx — 429 included — had no
// effect. Each writer adds and removes four sources of its own, so after
// every answer GET /sources must show exactly the writer's sources its
// successful requests left tracked.
func TestSourcesPostIsAllOrNothing(t *testing.T) {
	edges, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: dynppr.ModelRMAT, Vertices: 2000, Edges: 16000, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	so := dynppr.DefaultServiceOptions()
	so.Options.Epsilon = 1e-6
	so.QueueDepth = 1
	svc, err := dynppr.NewService(dynppr.GraphFromEdges(edges), []dynppr.VertexID{0}, so)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := httpapi.NewHandler(svc, httpapi.HandlerOptions{AdmissionTimeout: 200 * time.Microsecond})

	const writers, requests = 4, 60
	var shed atomic.Int64
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := make([]dynppr.VertexID, 4)
			for i := range own {
				own[i] = dynppr.VertexID(1000 + 10*w + i)
			}
			tracked := false
			for r := range requests {
				req := httpapi.SourcesRequest{Add: own}
				if tracked {
					req = httpapi.SourcesRequest{Remove: own}
				}
				body, _ := json.Marshal(req)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sources", bytes.NewReader(body)))
				status := rec.Code
				switch status {
				case http.StatusOK:
					tracked = !tracked
				case http.StatusTooManyRequests:
					shed.Add(1)
				default:
					t.Errorf("writer %d request %d: %d %s", w, r, status, rec.Body)
					return
				}
				rec = httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sources", nil))
				var got httpapi.SourcesResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
					t.Errorf("GET /sources: %v", err)
					return
				}
				for _, v := range own {
					if slices.Contains(got.Sources, v) != tracked {
						t.Errorf("writer %d request %d %+v answered %d, yet source %d tracked = %v",
							w, r, req, status, v, !tracked)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if shed.Load() == 0 {
		t.Fatal("no request shed with 429; the test did not exercise admission failure")
	}
	t.Logf("%d of %d requests shed", shed.Load(), writers*requests)
}
