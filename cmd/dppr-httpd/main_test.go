package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dynppr"
	"dynppr/internal/httpapi"
	"dynppr/internal/promexp"
)

// syncBuffer is an io.Writer safe to read while run() writes to it from
// another goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startHTTPD runs the daemon on a free loopback port and returns its base
// URL, the cancel that triggers graceful shutdown, and the run error
// channel.
func startHTTPD(t *testing.T, out *syncBuffer, extraArgs ...string) (string, context.CancelFunc, chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	args := append([]string{
		"-addr", "127.0.0.1:0", "-vertices", "200", "-edges", "1500",
		"-sources", "2", "-epsilon", "1e-4",
	}, extraArgs...)
	errCh := make(chan error, 1)
	go func() { errCh <- run(ctx, args, out) }()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "listening on "); ok {
				return strings.TrimSpace(rest), cancel, errCh
			}
		}
		select {
		case err := <-errCh:
			t.Fatalf("daemon exited before listening: %v\n%s", err, out.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
	cancel()
	t.Fatalf("daemon never reported its address:\n%s", out.String())
	return "", nil, nil
}

func TestHTTPDServesAndShutsDown(t *testing.T) {
	var out syncBuffer
	base, cancel, errCh := startHTTPD(t, &out)
	defer cancel()

	client := httpapi.NewClient(base, nil)
	if err := client.Health(); err != nil {
		t.Fatal(err)
	}
	sources, err := client.Sources()
	if err != nil {
		t.Fatal(err)
	}
	if len(sources) != 2 {
		t.Fatalf("sources = %v, want 2", sources)
	}
	top, err := client.TopK(sources[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if !top.Snapshot.Converged || len(top.Results) != 5 {
		t.Fatalf("topk = %+v", top)
	}
	res, err := client.ApplyEdges([]httpapi.Update{{U: 7, V: sources[0], Op: httpapi.OpInsert}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied+res.Skipped != 1 {
		t.Fatalf("edges response = %+v", res)
	}
	resp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Fatal("pprof mounted without -pprof")
	}

	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("graceful shutdown failed: %v\n%s", err, out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	for _, want := range []string{"cold start", "shutting down", "served 1 batches"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
	if err := client.Health(); err == nil {
		t.Fatal("server still reachable after shutdown")
	}
}

func TestHTTPDInputFile(t *testing.T) {
	edges, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: dynppr.ModelBarabasiAlbert, Vertices: 150, Edges: 1200, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/edges.txt"
	if err := dynppr.SaveEdges(path, edges); err != nil {
		t.Fatal(err)
	}
	var out syncBuffer
	base, cancel, errCh := startHTTPD(t, &out, "-input", path)
	defer cancel()
	if err := httpapi.NewClient(base, nil).Health(); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), path) {
		t.Fatalf("output should name the input file:\n%s", out.String())
	}
}

func TestHTTPDErrors(t *testing.T) {
	ctx := context.Background()
	var buf bytes.Buffer
	if err := run(ctx, []string{"-engine", "warp-drive", "-vertices", "10", "-edges", "20"}, &buf); err == nil {
		t.Fatal("unknown flag must fail")
	}
	for _, gone := range [][]string{
		{"-parallelism", "1"}, {"-ondemand-walks", "1"}, {"-ondemand-budget", "1ms"},
		{"-no-coalesce"}, {"-ondemand-workers", "1"}, {"-ondemand-cache", "1"},
		{"-no-metrics"}, {"-rate-burst", "3"}, {"-admission-timeout", "1s"},
		{"-probe-backoff", "1s"}, {"-probe-max", "2"},
	} {
		if err := run(ctx, append(gone, "-vertices", "10", "-edges", "20"), &buf); err == nil {
			t.Fatalf("%s is gone and must fail as an unknown flag", gone[0])
		}
	}
	if err := run(ctx, []string{"-dataset", "no-such"}, &buf); err == nil {
		t.Fatal("unknown dataset must fail")
	}
	if err := run(ctx, []string{"-input", "/does/not/exist.txt"}, &buf); err == nil {
		t.Fatal("missing input must fail")
	}
	if err := run(ctx, []string{"-vertices", "50", "-edges", "200", "-addr", "256.0.0.1:bad"}, &buf); err == nil {
		t.Fatal("unlistenable address must fail")
	}
}

// TestHTTPDFlagSurface compares the daemon's flags with a golden list, so
// the next flag is a visible diff here — and in the README's flag table,
// which must name each of them as `-name`.
func TestHTTPDFlagSurface(t *testing.T) {
	var got []string
	newFlagSet(new(config)).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := strings.Fields(`addr checkpoint-every data-dir dataset drain edges epsilon fsync
		input max-auto-sources ondemand ondemand-eps pool pprof promote-after queue rate-limit
		seed sources vertices`)
	if !slices.Equal(got, want) { // VisitAll walks in sorted order
		t.Fatalf("dppr-httpd has %d flags %v, the golden list has %d: %v", len(got), got, len(want), want)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range want {
		if !strings.Contains(string(readme), "`-"+name+"`") {
			t.Errorf("README.md does not document the flag `-%s`", name)
		}
	}
}

// TestHTTPDDurableRestart boots the daemon on a data directory, mutates it
// over HTTP, shuts it down, and boots a second daemon on the same directory:
// the second boot must recover (not re-seed), serve the same sources with
// the same snapshot epochs, and keep accepting writes.
func TestHTTPDDurableRestart(t *testing.T) {
	dir := t.TempDir() + "/data"

	var out1 syncBuffer
	base1, cancel1, errCh1 := startHTTPD(t, &out1,
		"-data-dir", dir, "-fsync", "always")
	defer cancel1()
	client1 := httpapi.NewClient(base1, nil)
	sources, err := client1.Sources()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := client1.ApplyEdges([]httpapi.Update{
			{U: dynppr.VertexID(180 + i), V: sources[0], Op: httpapi.OpInsert},
			{U: sources[0], V: dynppr.VertexID(190 + i), Op: httpapi.OpInsert},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	stats1, err := client1.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats1.Service.Persistence == nil || stats1.Service.Persistence.Dir != dir {
		t.Fatalf("persistence stats missing: %+v", stats1.Service.Persistence)
	}
	top1, err := client1.TopK(sources[0], 10)
	if err != nil {
		t.Fatal(err)
	}
	cancel1()
	if err := <-errCh1; err != nil {
		t.Fatalf("first daemon shutdown: %v\n%s", err, out1.String())
	}
	if !strings.Contains(out1.String(), "final checkpoint") {
		t.Fatalf("first daemon skipped the final checkpoint:\n%s", out1.String())
	}

	var out2 syncBuffer
	base2, cancel2, errCh2 := startHTTPD(t, &out2,
		"-data-dir", dir, "-fsync", "always")
	defer cancel2()
	if !strings.Contains(out2.String(), "recovered "+dir) {
		t.Fatalf("second boot did not recover:\n%s", out2.String())
	}
	client2 := httpapi.NewClient(base2, nil)
	sources2, err := client2.Sources()
	if err != nil {
		t.Fatal(err)
	}
	if len(sources2) != len(sources) {
		t.Fatalf("sources changed across restart: %v -> %v", sources, sources2)
	}
	top2, err := client2.TopK(sources[0], 10)
	if err != nil {
		t.Fatal(err)
	}
	if top2.Snapshot.Epoch != top1.Snapshot.Epoch {
		t.Fatalf("epoch %d after restart, want %d", top2.Snapshot.Epoch, top1.Snapshot.Epoch)
	}
	for i := range top2.Results {
		if top2.Results[i] != top1.Results[i] {
			t.Fatalf("topk[%d] changed across restart: %+v -> %+v", i, top1.Results[i], top2.Results[i])
		}
	}
	if _, err := client2.ApplyEdges([]httpapi.Update{
		{U: 42, V: sources[0], Op: httpapi.OpInsert},
	}); err != nil {
		t.Fatal(err)
	}
	cancel2()
	if err := <-errCh2; err != nil {
		t.Fatalf("second daemon shutdown: %v\n%s", err, out2.String())
	}
}

// TestHTTPDServingPolicyFlags boots the daemon with the traffic-management
// flags and asserts each surface: the bounded queue is reported, /metrics
// serves parseable Prometheus text, pprof is mounted, and the per-client
// rate limiter answers 429 with a Retry-After once the burst is spent.
func TestHTTPDServingPolicyFlags(t *testing.T) {
	var out syncBuffer
	base, cancel, errCh := startHTTPD(t, &out,
		"-queue", "1", "-rate-limit", "0.5", "-pprof")
	defer cancel()

	if !strings.Contains(out.String(), "admission: queue=1 rate-limit=0.5 pprof=true") {
		t.Fatalf("admission line missing:\n%s", out.String())
	}

	client := httpapi.NewClient(base, nil)
	text, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	fams, err := promexp.ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("/metrics is not valid exposition format: %v\n%s", err, text)
	}
	byName := make(map[string]promexp.Family, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}
	if f, ok := byName["dppr_queue_capacity"]; !ok || f.Samples[0].Value != 1 {
		t.Fatalf("dppr_queue_capacity = %+v, want 1", f)
	}

	resp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}

	// Spend the 16-request burst on the data plane; the next request must be
	// 429 with a Retry-After suggestion. /healthz and /metrics are never
	// limited.
	sources, err := client.Sources()
	if err != nil {
		t.Fatal(err)
	}
	var limited *httpapi.APIError
	for i := 0; i < 20; i++ {
		if _, err := client.TopK(sources[0], 3); err != nil {
			apiErr, ok := err.(*httpapi.APIError)
			if !ok {
				t.Fatal(err)
			}
			limited = apiErr
			break
		}
	}
	if limited == nil || limited.StatusCode != 429 {
		t.Fatalf("rate limiter never fired: %+v", limited)
	}
	if limited.RetryAfter <= 0 {
		t.Fatalf("429 without Retry-After: %+v", limited)
	}
	if err := client.Health(); err != nil {
		t.Fatalf("/healthz must not be rate limited: %v", err)
	}
	if _, err := client.Metrics(); err != nil {
		t.Fatalf("/metrics must not be rate limited: %v", err)
	}

	cancel()
	<-errCh
}

// TestHTTPDOnDemandFlags boots the daemon with the on-demand flags and
// asserts the startup log reports the derived bound and cache size and that
// a repeated cold query is answered from the result cache.
func TestHTTPDOnDemandFlags(t *testing.T) {
	var out syncBuffer
	base, cancel, errCh := startHTTPD(t, &out, "-ondemand", "-ondemand-eps", "1e-3")
	defer cancel()

	if want := fmt.Sprintf("workers=%d cache=256\n", runtime.GOMAXPROCS(0)); !strings.Contains(out.String(), want) {
		t.Fatalf("ondemand startup line missing the derived %q:\n%s", want, out.String())
	}

	client := httpapi.NewClient(base, nil)
	sources, err := client.Sources()
	if err != nil {
		t.Fatal(err)
	}
	tracked := make(map[dynppr.VertexID]bool, len(sources))
	for _, s := range sources {
		tracked[s] = true
	}
	var cold dynppr.VertexID
	for v := dynppr.VertexID(0); ; v++ {
		if !tracked[v] {
			cold = v
			break
		}
	}
	first, err := client.TopK(cold, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Approx || first.Cached {
		t.Fatalf("first cold query: approx=%t cached=%t, want approx uncached", first.Approx, first.Cached)
	}
	again, err := client.TopK(cold, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatalf("repeated cold query not served from the cache: %+v", again)
	}

	cancel()
	<-errCh
}

// TestHTTPDCheckpointWithoutDataDir asserts the admin endpoint answers 409
// on an in-memory daemon.
func TestHTTPDCheckpointWithoutDataDir(t *testing.T) {
	var out syncBuffer
	base, cancel, errCh := startHTTPD(t, &out)
	defer cancel()
	_, err := httpapi.NewClient(base, nil).Checkpoint()
	apiErr, ok := err.(*httpapi.APIError)
	if !ok || apiErr.StatusCode != 409 {
		t.Fatalf("checkpoint without data dir: got %v, want 409", err)
	}
	cancel()
	<-errCh
}
