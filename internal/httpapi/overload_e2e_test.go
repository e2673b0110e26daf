package httpapi_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynppr"
	"dynppr/internal/httpapi"
	"dynppr/internal/metrics"
	"dynppr/internal/promexp"
)

// overloadServer brings up a server shaped to saturate: a single-slot write
// pipeline with a short admission timeout over a graph large enough that
// each batch occupies the pipeline for a visible time.
func overloadServer(t *testing.T, handler httpapi.HandlerOptions) (*dynppr.Service, *httpapi.Server) {
	t.Helper()
	edges, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: dynppr.ModelRMAT, Vertices: 2000, Edges: 16000, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := dynppr.GraphFromEdges(edges)
	sources := g.TopDegreeVertices(2)
	so := dynppr.DefaultServiceOptions()
	so.Options.Epsilon = 1e-6
	so.PoolWorkers = 2
	so.QueueDepth = 1
	svc, err := dynppr.NewService(g, sources, so)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	srv := httpapi.NewServer(svc, httpapi.ServerOptions{Addr: "127.0.0.1:0", Handler: handler})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Wait() })
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return svc, srv
}

func randomBatch(rng *rand.Rand, n, vertices int) []httpapi.Update {
	updates := make([]httpapi.Update, n)
	for i := range updates {
		op := httpapi.OpInsert
		if rng.Intn(3) == 0 {
			op = httpapi.OpDelete
		}
		updates[i] = httpapi.Update{
			U:  dynppr.VertexID(rng.Intn(vertices)),
			V:  dynppr.VertexID(rng.Intn(vertices)),
			Op: op,
		}
	}
	return updates
}

// TestHTTPOverloadSheds429 saturates the write pipeline with concurrent
// batches and asserts the overload contract end to end: excess writes are
// answered 429 with a Retry-After suggestion instead of queueing without
// bound, reads keep completing with bounded latency from converged
// monotone-epoch snapshots throughout, and both the HTTP layer and the
// service report the shedding in /stats.
func TestHTTPOverloadSheds429(t *testing.T) {
	svc, srv := overloadServer(t, httpapi.HandlerOptions{AdmissionTimeout: time.Millisecond})
	sources := svc.Sources()
	client := httpapi.NewClient(srv.URL(), nil)

	const writers = 8
	var (
		wg      sync.WaitGroup
		acked   atomic.Int64
		shed    atomic.Int64
		retryOK atomic.Int64
	)
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := client.ApplyEdges(randomBatch(rng, 300, 2000))
				switch {
				case err == nil:
					acked.Add(1)
				case httpapi.IsOverloaded(err):
					shed.Add(1)
					if apiErr, ok := err.(*httpapi.APIError); ok && apiErr.RetryAfter >= time.Second {
						retryOK.Add(1)
					}
				default:
					t.Errorf("writer %d: unexpected error: %v", w, err)
					return
				}
			}
		}(w)
	}

	// Readers run against the saturated server: every response converged,
	// epochs monotone per reader, latency bounded (reads never queue behind
	// the write pipeline).
	var reads atomic.Int64
	var slowReads atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lastEpoch := make(map[dynppr.VertexID]uint64)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				source := sources[i%len(sources)]
				start := time.Now()
				res, err := client.TopK(source, 10)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if d := time.Since(start); d > 5*time.Second {
					slowReads.Add(1)
				}
				if !res.Snapshot.Converged {
					t.Errorf("reader %d: non-converged snapshot under overload", r)
					return
				}
				if res.Snapshot.Epoch < lastEpoch[source] {
					t.Errorf("reader %d: epoch regressed %d -> %d under overload",
						r, lastEpoch[source], res.Snapshot.Epoch)
					return
				}
				lastEpoch[source] = res.Snapshot.Epoch
				reads.Add(1)
			}
		}(r)
	}

	// Run until shedding and acknowledgements have both been observed (the
	// queue drains between polls, so a fixed duration would be flaky).
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) && (shed.Load() == 0 || acked.Load() == 0 || reads.Load() < 10) {
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if shed.Load() == 0 {
		t.Fatal("saturated pipeline never shed a 429")
	}
	if acked.Load() == 0 {
		t.Fatal("no write was ever admitted")
	}
	if retryOK.Load() == 0 {
		t.Fatal("no 429 carried a Retry-After of at least one second")
	}
	if slowReads.Load() > 0 {
		t.Fatalf("%d reads exceeded the 5s latency bound under saturation", slowReads.Load())
	}

	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Overload.Shed == 0 {
		t.Fatalf("/stats overload counters missed the shedding: %+v", stats.Overload)
	}
	if stats.Service.Shed == 0 || stats.Service.QueueCap != 1 {
		t.Fatalf("/stats service shed=%d queue_cap=%d, want shed>0 cap=1",
			stats.Service.Shed, stats.Service.QueueCap)
	}
}

// headerTransport stamps every request with an X-Client-ID so the rate
// limiter sees distinct clients behind one transport.
type headerTransport struct{ id string }

func (ht headerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r.Header.Set("X-Client-ID", ht.id)
	return http.DefaultTransport.RoundTrip(r)
}

// TestHTTPRateLimitPerClient exhausts one client's token bucket and asserts
// the 429 carries a Retry-After while a different client and the control
// plane stay admitted.
func TestHTTPRateLimitPerClient(t *testing.T) {
	_, srv := overloadServer(t, httpapi.HandlerOptions{RateLimit: 0.5})
	greedy := httpapi.NewClient(srv.URL(), &http.Client{Transport: headerTransport{"greedy"}})
	polite := httpapi.NewClient(srv.URL(), &http.Client{Transport: headerTransport{"polite"}})

	sources, err := polite.Sources() // spends one of polite's tokens
	if err != nil {
		t.Fatal(err)
	}

	// The burst is 16 requests; at 0.5 req/s nothing refills meanwhile.
	var limited *httpapi.APIError
	for i := 0; i < 20; i++ {
		if _, err := greedy.TopK(sources[0], 5); err != nil {
			if !httpapi.IsOverloaded(err) {
				t.Fatalf("request %d: %v", i, err)
			}
			limited = err.(*httpapi.APIError)
			break
		}
	}
	if limited == nil {
		t.Fatal("greedy client was never rate limited")
	}
	if limited.RetryAfter < time.Second {
		t.Fatalf("rate-limit 429 Retry-After = %v, want >= 1s", limited.RetryAfter)
	}
	// A distinct client id has its own bucket.
	if _, err := polite.TopK(sources[0], 5); err != nil {
		t.Fatalf("distinct client was limited by the greedy one: %v", err)
	}
	// The control plane is never limited.
	if err := greedy.Health(); err != nil {
		t.Fatalf("/healthz rate limited: %v", err)
	}
	if _, err := greedy.Stats(); err != nil {
		t.Fatalf("/stats rate limited: %v", err)
	}

	stats, err := polite.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Overload.RateLimited == 0 {
		t.Fatalf("rate-limited counter not incremented: %+v", stats.Overload)
	}
}

// TestHTTPTopKValidation pins the /topk parameter contract: bad k values
// are 400s with a JSON error envelope, a missing k selects the default.
func TestHTTPTopKValidation(t *testing.T) {
	svc, srv := overloadServer(t, httpapi.HandlerOptions{})
	client := httpapi.NewClient(srv.URL(), nil)
	source := int(svc.Sources()[0])

	for _, k := range []string{"0", "-3", "abc", "3000000000", "1000000"} {
		resp, err := http.Get(srv.URL() + "/topk?source=" + strconv.Itoa(source) + "&k=" + k)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("k=%s: status %d, want 400", k, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("k=%s: error not JSON (%s)", k, ct)
		}
	}
	// Missing k selects the capped default.
	resp, err := http.Get(srv.URL() + "/topk?source=" + strconv.Itoa(source))
	if err != nil {
		t.Fatal(err)
	}
	var top httpapi.TopKResult
	err = json.NewDecoder(resp.Body).Decode(&top)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if top.K != 10 {
		t.Fatalf("default k = %d, want 10", top.K)
	}
	// In-range k still works, batched queries included.
	if _, err := client.TopK(dynppr.VertexID(source), 1024); err != nil {
		t.Fatalf("k at the cap rejected: %v", err)
	}
	res, err := client.Query([]httpapi.Query{{Kind: httpapi.KindTopK, Source: dynppr.VertexID(source), K: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Error == "" {
		t.Fatal("batched query with k=-1 not rejected inline")
	}
}

// TestHTTPMetricsEndpoint drives traffic and validates GET /metrics against
// the strict exposition-format parser: the scrape must parse, and its
// counters must reflect the traffic that was just served.
func TestHTTPMetricsEndpoint(t *testing.T) {
	svc, srv := overloadServer(t, httpapi.HandlerOptions{AdmissionTimeout: time.Millisecond})
	client := httpapi.NewClient(srv.URL(), nil)
	source := svc.Sources()[0]

	const topkReads = 12
	for i := 0; i < topkReads; i++ {
		if _, err := client.TopK(source, 5); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.ApplyEdges([]httpapi.Update{{U: 1, V: 2, Op: httpapi.OpInsert}}); err != nil && !httpapi.IsOverloaded(err) {
		t.Fatal(err)
	}

	text, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	fams, err := promexp.ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("/metrics does not parse as exposition format: %v\n%s", err, text)
	}
	byName := make(map[string]promexp.Family, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}
	for _, name := range []string{
		"dppr_http_requests_total", "dppr_http_request_errors_total",
		"dppr_http_request_duration_seconds",
		"dppr_http_shed_total", "dppr_http_rate_limited_total",
		"dppr_queue_depth", "dppr_queue_capacity", "dppr_pipeline_shed_total",
		"dppr_batches_total", "dppr_updates_applied_total",
		"dppr_graph_vertices", "dppr_graph_edges", "dppr_pushes_total",
		"dppr_snapshot_full_publishes_total", "dppr_snapshot_delta_publishes_total",
	} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("family %q missing from /metrics:\n%s", name, text)
		}
	}

	var topkRequests float64
	for _, s := range byName["dppr_http_requests_total"].Samples {
		for _, l := range s.Labels {
			if l.Name == "endpoint" && l.Value == "/topk" {
				topkRequests = s.Value
			}
		}
	}
	if topkRequests < topkReads {
		t.Fatalf("dppr_http_requests_total{/topk} = %v, want >= %d", topkRequests, topkReads)
	}
	dur := byName["dppr_http_request_duration_seconds"]
	var durOK bool
	for _, s := range dur.Histograms {
		for _, l := range s.Labels {
			if l.Name == "endpoint" && l.Value == "/topk" {
				durOK = s.Count >= topkReads && s.Sum > 0 && float64(s.Count) == topkRequests &&
					len(s.Buckets) == metrics.NumBuckets
			}
		}
	}
	if dur.Type != promexp.Histogram || !durOK {
		t.Fatalf("latency histogram for /topk missing or inconsistent:\n%s", text)
	}
	if v, want := byName["dppr_graph_vertices"].Samples[0].Value, float64(svc.Stats().Vertices); v != want {
		t.Fatalf("dppr_graph_vertices = %v, want %v", v, want)
	}
	if c := byName["dppr_queue_capacity"].Samples[0].Value; c != 1 {
		t.Fatalf("dppr_queue_capacity = %v, want 1", c)
	}
}

// TestHTTPOverloadRestartNoLostAcks is the durability half of the overload
// contract: under a saturated single-slot pipeline, every batch the server
// ACKED must survive a restart, and every batch it shed with 429 must have
// left no trace. Each batch inserts one unique never-duplicated edge, so
// the recovered edge count must equal the seed plus exactly the
// acknowledged batches.
func TestHTTPOverloadRestartNoLostAcks(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	edges, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: dynppr.ModelRMAT, Vertices: 1500, Edges: 12000, Seed: 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := dynppr.GraphFromEdges(edges)
	sources := g.TopDegreeVertices(2)
	base := dynppr.VertexID(g.NumVertices())

	so := dynppr.DefaultServiceOptions()
	so.Options.Epsilon = 1e-6
	so.QueueDepth = 1
	po := dynppr.PersistOptions{Dir: dir, Sync: dynppr.SyncAlways}
	svc, err := dynppr.NewPersistentService(g, sources, so, po)
	if err != nil {
		t.Fatal(err)
	}
	srv := httpapi.NewServer(svc, httpapi.ServerOptions{
		Addr:    "127.0.0.1:0",
		Handler: httpapi.HandlerOptions{AdmissionTimeout: time.Millisecond},
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	client := httpapi.NewClient(srv.URL(), nil)
	seedEdges := svc.Stats().Edges

	// Concurrent writers: batch i inserts the unique edge
	// (source, base+i), so an ACK is verifiable one-to-one in the recovered
	// graph. Fanning the edges out FROM a tracked source makes every batch
	// change the source's out-degree and reconverge it at epsilon 1e-6,
	// which keeps the single-slot pipeline busy long enough to shed.
	const writers = 8
	const perWriter = 40
	var (
		wg       sync.WaitGroup
		ackCount atomic.Int64
		shed     atomic.Int64
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seq := dynppr.VertexID(w*perWriter + i)
				res, err := client.ApplyEdges([]httpapi.Update{{
					U: sources[0], V: base + seq, Op: httpapi.OpInsert,
				}})
				switch {
				case err == nil:
					if res.Applied != 1 {
						t.Errorf("unique edge batch applied %d, want 1", res.Applied)
					}
					ackCount.Add(1)
				case httpapi.IsOverloaded(err):
					shed.Add(1)
				default:
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if ackCount.Load() == 0 {
		t.Fatal("no batch was ever acknowledged")
	}
	if shed.Load() == 0 {
		t.Fatal("single-slot pipeline with 1ms admission never shed — overload not exercised")
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover: the WAL must replay exactly the acknowledged batches — a
	// lost ACK or a journaled shed both break the edge-count identity.
	svc2, err := dynppr.NewServiceFromRecovery(so, po)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	gotEdges := svc2.Stats().Edges
	wantEdges := seedEdges + int(ackCount.Load())
	if gotEdges != wantEdges {
		t.Fatalf("recovered %d edges, want %d (seed %d + %d acked; %d shed): acknowledged writes lost or shed writes applied",
			gotEdges, wantEdges, seedEdges, ackCount.Load(), shed.Load())
	}
}
