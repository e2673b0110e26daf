package dynppr_test

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"dynppr"
	"dynppr/internal/httpapi"
)

// fullSortTopK is the straightforward reference TopK implementations must
// agree with: sort all n vertices by descending score, ties broken by
// ascending vertex id, and truncate to k.
func fullSortTopK(est []float64, k int) []dynppr.VertexScore {
	all := make([]dynppr.VertexScore, len(est))
	for v, s := range est {
		all[v] = dynppr.VertexScore{Vertex: dynppr.VertexID(v), Score: s}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Vertex < all[j].Vertex
	})
	if k < 0 {
		k = 0
	}
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// topKCases are the edge-case graphs every TopK implementation — the
// heap-based selection behind Tracker.TopK, Service.AppendTopK and the HTTP
// /topk endpoint — is driven through.
func topKCases(t *testing.T) []struct {
	name   string
	edges  []dynppr.Edge
	source dynppr.VertexID
} {
	t.Helper()
	rmat, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: dynppr.ModelRMAT, Vertices: 60, Edges: 400, Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	star := make([]dynppr.Edge, 0, 9)
	for i := dynppr.VertexID(1); i <= 9; i++ {
		// Every leaf points at the hub: all leaves tie exactly, so
		// tie-breaking by vertex id is fully exercised.
		star = append(star, dynppr.Edge{U: i, V: 0})
	}
	chain := []dynppr.Edge{{U: 1, V: 0}, {U: 2, V: 1}, {U: 3, V: 2}, {U: 4, V: 3}}
	twoTiers := append(append([]dynppr.Edge{}, star...),
		dynppr.Edge{U: 10, V: 1}, dynppr.Edge{U: 11, V: 1}) // 10 and 11 tie below the leaves
	return []struct {
		name   string
		edges  []dynppr.Edge
		source dynppr.VertexID
	}{
		{"star-all-ties", star, 0},
		{"chain-distinct-scores", chain, 0},
		{"two-tier-ties", twoTiers, 0},
		{"isolated-source", nil, 3},
		{"rmat", rmat, 0},
	}
}

// TestTopKTableAcrossLayers drives identical edge cases — k=0, k=n, k>n and
// exact score ties — through all three TopK surfaces and checks each against
// the full-sort reference over its own estimate vector.
func TestTopKTableAcrossLayers(t *testing.T) {
	assertEqual := func(t *testing.T, layer string, k int, got, want []dynppr.VertexScore) {
		t.Helper()
		if k == 0 && got != nil {
			t.Fatalf("%s: TopK(0) = %v, want nil", layer, got)
		}
		if len(got) != len(want) {
			t.Fatalf("%s k=%d: %d entries, want %d", layer, k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s k=%d entry %d: got %+v, want %+v\nfull got:  %v\nfull want: %v",
					layer, k, i, got[i], want[i], got, want)
			}
		}
	}

	for _, tc := range topKCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			opts := dynppr.DefaultOptions()
			opts.Epsilon = 1e-6
			tr, err := dynppr.NewTracker(dynppr.GraphFromEdges(tc.edges), tc.source, opts)
			if err != nil {
				t.Fatal(err)
			}
			n := len(tr.Estimates())

			so := dynppr.DefaultServiceOptions()
			so.Options.Epsilon = 1e-6
			svc, err := dynppr.NewService(dynppr.GraphFromEdges(tc.edges), []dynppr.VertexID{tc.source}, so)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			ts := httptest.NewServer(httpapi.NewHandler(svc, httpapi.HandlerOptions{}))
			defer ts.Close()
			client := httpapi.NewClient(ts.URL, ts.Client())

			svcEst, _, err := svc.EstimatesInfo(tc.source)
			if err != nil {
				t.Fatal(err)
			}
			if len(svcEst) != n {
				t.Fatalf("tracker and service vector lengths differ: %d vs %d", n, len(svcEst))
			}

			for _, k := range []int{0, 1, 2, n / 2, n - 1, n, n + 5, 10 * n} {
				if k < 0 {
					continue
				}
				// Tracker: heap selection vs full sort of its own vector.
				assertEqual(t, "tracker", k, tr.TopK(k), fullSortTopK(tr.Estimates(), k))

				// Service: snapshot read path against the snapshot's vector.
				gotSvc, _, err := svc.AppendTopK(nil, tc.source, k)
				if err != nil {
					t.Fatal(err)
				}
				wantSvc := fullSortTopK(svcEst, k)
				assertEqual(t, "service", k, gotSvc, wantSvc)

				// HTTP: the wire result must match the service exactly.
				// The wire contract diverges from the library on k=0:
				// in-process TopK(0) returns nil, but the endpoint
				// rejects non-positive k as a client error.
				gotHTTP, err := client.TopK(tc.source, k)
				if k == 0 {
					var apiErr *httpapi.APIError
					if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
						t.Fatalf("httpapi k=0: got (%+v, %v), want 400", gotHTTP, err)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				wire := make([]dynppr.VertexScore, len(gotHTTP.Results))
				for i, vs := range gotHTTP.Results {
					wire[i] = dynppr.VertexScore{Vertex: vs.Vertex, Score: vs.Score}
				}
				assertEqual(t, "httpapi", k, wire, wantSvc)
				if gotHTTP.Snapshot.Epoch != 1 || !gotHTTP.Snapshot.Converged {
					t.Fatalf("httpapi snapshot meta: %+v", gotHTTP.Snapshot)
				}
			}

			// Tie ordering is pinned explicitly: equal scores must come back
			// in ascending vertex order.
			full := tr.TopK(n)
			for i := 1; i < len(full); i++ {
				if full[i-1].Score == full[i].Score && full[i-1].Vertex >= full[i].Vertex {
					t.Fatalf("tie order violated at %d: %+v before %+v", i, full[i-1], full[i])
				}
				if full[i-1].Score < full[i].Score {
					t.Fatalf("descending order violated at %d", i)
				}
			}
		})
	}
}
