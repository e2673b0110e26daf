package httpapi_test

// End-to-end degraded-mode serving: a persistent service behind the HTTP
// handler takes a scripted storage fault; the write path must shed with
// 503 + Retry-After (derived from the next recovery probe), reads and
// /healthz must keep serving, the state must be visible in /stats and
// /metrics, and the stack must heal — by background probe or by a manual
// /checkpoint — without a restart.

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dynppr"
	"dynppr/internal/faultfs"
	"dynppr/internal/httpapi"
)

// newDegradedAPI boots a small persistent service through a fault injector
// and serves it over httptest.
func newDegradedAPI(t *testing.T, probeBackoff time.Duration) (*httptest.Server, *httpapi.Client, *faultfs.Injector) {
	t.Helper()
	edges, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Name: "degraded-e2e", Model: dynppr.ModelRMAT, Vertices: 200, Edges: 1500, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := dynppr.GraphFromEdges(edges)
	sources := g.TopDegreeVertices(2)

	so := dynppr.DefaultServiceOptions()
	so.Options.Epsilon = 1e-4

	in := faultfs.NewInjector(faultfs.OS)
	svc, err := dynppr.NewPersistentService(g, sources, so, dynppr.PersistOptions{
		Dir:          filepath.Join(t.TempDir(), "data"),
		Sync:         dynppr.SyncAlways,
		FS:           in,
		ProbeBackoff: probeBackoff,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpapi.NewHandler(svc, httpapi.HandlerOptions{}))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts, httpapi.NewClient(ts.URL, nil), in
}

func healthzBody(t *testing.T, ts *httptest.Server) (int, httpapi.HealthResponse) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr httpapi.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil && resp.StatusCode == http.StatusOK {
		t.Fatal(err)
	}
	return resp.StatusCode, hr
}

func oneInsert(u, v dynppr.VertexID) []httpapi.Update {
	return []httpapi.Update{{U: u, V: v, Op: httpapi.OpInsert}}
}

// TestDegradedWritePath503 pins the degraded-mode HTTP contract with the
// probe parked far in the future: writes shed 503 with a Retry-After the
// client can act on, reads and liveness keep serving, observability exposes
// the state, and a manual /checkpoint heals immediately.
func TestDegradedWritePath503(t *testing.T) {
	ts, client, in := newDegradedAPI(t, time.Hour)

	if _, err := client.ApplyEdges(oneInsert(0, 199)); err != nil {
		t.Fatalf("baseline write: %v", err)
	}

	in.Add(faultfs.Rule{Op: faultfs.OpWrite, Path: "wal"})
	_, err := client.ApplyEdges(oneInsert(1, 198))
	if err == nil {
		t.Fatal("write under storage fault succeeded")
	}
	if !httpapi.IsDegraded(err) {
		t.Fatalf("write rejection is not a degraded 503 with Retry-After: %v", err)
	}
	var ae *httpapi.APIError
	if !asAPIError(err, &ae) {
		t.Fatalf("not an APIError: %v", err)
	}
	if ae.RetryAfter < time.Second || ae.RetryAfter > 60*time.Second {
		t.Fatalf("Retry-After %v outside the [1s, 60s] clamp", ae.RetryAfter)
	}
	if !strings.Contains(ae.Message, "degraded") {
		t.Fatalf("error envelope does not say degraded: %q", ae.Message)
	}

	// Liveness and reads survive a degraded write path.
	status, hr := healthzBody(t, ts)
	if status != http.StatusOK {
		t.Fatalf("healthz %d while degraded, want 200 (reads still serve)", status)
	}
	if hr.Persistence != "degraded" {
		t.Fatalf("healthz persistence %q, want degraded", hr.Persistence)
	}
	sources, err := client.Sources()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.TopK(sources[0], 5); err != nil {
		t.Fatalf("read while degraded: %v", err)
	}

	// Observability: /stats and /metrics expose the state machine.
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	p := st.Service.Persistence
	if p == nil || p.State != dynppr.PersistDegraded {
		t.Fatalf("stats persistence %+v, want state degraded", p)
	}
	if p.NextProbe <= 0 {
		t.Fatal("stats do not expose the pending probe time")
	}
	metrics, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "dppr_persistence_state 1") {
		t.Fatal("metrics do not show dppr_persistence_state 1 while degraded")
	}

	// A manual checkpoint doubles as an immediate recovery probe.
	if _, err := client.Checkpoint(); err != nil {
		t.Fatalf("manual checkpoint heal: %v", err)
	}
	if _, hr := healthzBody(t, ts); hr.Persistence != "healthy" {
		t.Fatalf("healthz persistence %q after heal, want healthy", hr.Persistence)
	}
	if _, err := client.ApplyEdges(oneInsert(1, 198)); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	metrics, err = client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "dppr_persistence_state 0") {
		t.Fatal("metrics do not return to dppr_persistence_state 0 after heal")
	}
	if !strings.Contains(metrics, "dppr_persistence_probe_successes_total 1") {
		t.Fatal("metrics do not count the successful heal")
	}
}

// TestDegradedSelfHealsThroughHTTP drives the retry loop a well-behaved
// client runs: keep re-offering the write until the background probe heals
// the storage stack.
func TestDegradedSelfHealsThroughHTTP(t *testing.T) {
	_, client, in := newDegradedAPI(t, 20*time.Millisecond)
	in.Add(faultfs.Rule{Op: faultfs.OpWrite, Path: "wal"})

	deadline := time.Now().Add(30 * time.Second)
	degraded := 0
	for {
		_, err := client.ApplyEdges(oneInsert(2, 197))
		if err == nil {
			break
		}
		if !httpapi.IsDegraded(err) {
			t.Fatalf("write failed non-degraded: %v", err)
		}
		degraded++
		if time.Now().After(deadline) {
			t.Fatal("server never healed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if degraded == 0 {
		t.Fatal("the scripted fault never produced a degraded rejection")
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	p := st.Service.Persistence
	if p.State != dynppr.PersistHealthy || p.ProbeSuccesses < 1 {
		t.Fatalf("after self-heal: state %q, probe successes %d", p.State, p.ProbeSuccesses)
	}
	if p.DegradedSeconds <= 0 {
		t.Fatal("degraded window not accounted in stats")
	}
}

// TestFailedPersistence503 pins the terminal state: a permanent-class error
// fails persistence, writes shed 503 WITHOUT Retry-After (not retryable),
// /healthz flips to 503, but reads keep serving.
func TestFailedPersistence503(t *testing.T) {
	ts, client, in := newDegradedAPI(t, time.Hour)
	in.Add(faultfs.Rule{Op: faultfs.OpWrite, Path: "wal", Err: syscall.EROFS})

	_, err := client.ApplyEdges(oneInsert(3, 196))
	if err == nil {
		t.Fatal("write on read-only storage succeeded")
	}
	if httpapi.IsDegraded(err) {
		t.Fatalf("permanent failure classified as retryable degraded: %v", err)
	}
	var ae *httpapi.APIError
	if !asAPIError(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("want a plain 503, got %v", err)
	}

	status, _ := healthzBody(t, ts)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("healthz %d after permanent persistence failure, want 503", status)
	}
	sources, err := client.Sources()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.TopK(sources[0], 5); err != nil {
		t.Fatalf("read after permanent failure: %v", err)
	}
	if !strings.Contains(mustMetrics(t, client), "dppr_persistence_failed 1") {
		t.Fatal("metrics do not show dppr_persistence_failed 1")
	}
}

func asAPIError(err error, target **httpapi.APIError) bool {
	return errors.As(err, target)
}

func mustMetrics(t *testing.T, client *httpapi.Client) string {
	t.Helper()
	m, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	return m
}
