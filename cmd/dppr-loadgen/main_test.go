package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dynppr"
	"dynppr/internal/faultfs"
	"dynppr/internal/httpapi"
)

// startServer brings up a real loopback dppr-httpd equivalent (Service +
// httpapi.Server) for the load generator to hammer.
func startServer(t *testing.T) string {
	t.Helper()
	edges, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: dynppr.ModelRMAT, Vertices: 200, Edges: 1500, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := dynppr.GraphFromEdges(edges)
	sources := g.TopDegreeVertices(3)
	so := dynppr.DefaultServiceOptions()
	so.Options.Epsilon = 1e-4
	so.PoolWorkers = 2
	svc, err := dynppr.NewService(g, sources, so)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	srv := httpapi.NewServer(svc, httpapi.ServerOptions{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Wait() })
	t.Cleanup(func() { srv.Shutdown(t.Context()) })
	return srv.URL()
}

// TestLoadgen64Clients is the acceptance run: 64 concurrent closed-loop
// clients over a live update stream (10% writes) with zero non-2xx
// responses and zero snapshot contract violations.
func TestLoadgen64Clients(t *testing.T) {
	base := startServer(t)
	var out bytes.Buffer
	err := run([]string{
		"-addr", base, "-clients", "64", "-requests", "5",
		"-batch", "20", "-reads", "4", "-seed", "3",
	}, &out)
	if err != nil {
		t.Fatalf("loadgen failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"clients=64",
		"completed 320 requests",
		"non-2xx or transport errors: 0",
		"snapshot contract violations: 0",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestLoadgenDurationMode(t *testing.T) {
	base := startServer(t)
	var out bytes.Buffer
	err := run([]string{
		"-addr", base, "-clients", "8", "-duration", "250ms", "-batch", "10",
	}, &out)
	if err != nil {
		t.Fatalf("loadgen failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "req/sec overall") {
		t.Fatalf("missing throughput line:\n%s", out.String())
	}
}

func TestLoadgenReadOnlyMix(t *testing.T) {
	base := startServer(t)
	var out bytes.Buffer
	err := run([]string{
		"-addr", base, "-clients", "4", "-requests", "10", "-write", "0", "-batchread", "0",
	}, &out)
	if err != nil {
		t.Fatalf("loadgen failed: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "write") && strings.Contains(out.String(), "\nwrite ") {
		t.Fatalf("write class should be silent with weight 0:\n%s", out.String())
	}
}

// startOverloadServer brings up a server shaped to shed: a write pipeline
// of depth 1 with a near-zero admission timeout, over a graph large enough
// that write batches occupy the pipeline for a visible time.
func startOverloadServer(t *testing.T) string {
	t.Helper()
	edges, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: dynppr.ModelRMAT, Vertices: 2000, Edges: 16000, Seed: 7,
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
	srv := httpapi.NewServer(svc, httpapi.ServerOptions{
		Addr:    "127.0.0.1:0",
		Handler: httpapi.HandlerOptions{AdmissionTimeout: time.Millisecond},
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Wait() })
	t.Cleanup(func() { srv.Shutdown(t.Context()) })
	return srv.URL()
}

// TestLoadgenOpenLoopOverload drives a write-heavy open-loop stream into a
// server with a single-slot pipeline: the server must shed with 429 (so
// -expect-shed passes), reads must stay within a generous p99 SLO, and no
// request may fail with anything but 429.
func TestLoadgenOpenLoopOverload(t *testing.T) {
	base := startOverloadServer(t)
	var out bytes.Buffer
	err := run([]string{
		"-addr", base, "-arrival", "400", "-requests", "300",
		"-write", "70", "-topk", "25", "-estimate", "5", "-batchread", "0",
		"-batch", "400", "-seed", "9",
		"-max-p99", "5s", "-expect-shed",
	}, &out)
	if err != nil {
		t.Fatalf("overload run failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"open-loop arrival=400",
		"shed (429) responses:",
		"read p99:",
		"non-2xx or transport errors: 0",
		"snapshot contract violations: 0",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// startOnDemandServer brings up a server that answers untracked sources via
// the on-demand path and promotes sources queried at least 5 times.
func startOnDemandServer(t *testing.T) string {
	t.Helper()
	edges, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: dynppr.ModelRMAT, Vertices: 200, Edges: 1500, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := dynppr.GraphFromEdges(edges)
	sources := g.TopDegreeVertices(3)
	so := dynppr.DefaultServiceOptions()
	so.Options.Epsilon = 1e-4
	so.PoolWorkers = 2
	so.OnDemand = dynppr.OnDemandOptions{
		Enabled: true, Epsilon: 1e-3,
		PromoteAfter: 5, MaxAutoSources: 8,
	}
	svc, err := dynppr.NewService(g, sources, so)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	srv := httpapi.NewServer(svc, httpapi.ServerOptions{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Wait() })
	t.Cleanup(func() { srv.Shutdown(t.Context()) })
	return srv.URL()
}

// TestLoadgenZipfLongTail drives the Zipf read mix into an on-demand server:
// every request must succeed (an untracked source is never a 404), cold
// sources are answered approximately with a positive error bound, and the
// hot head of the tail gets promoted so some reads come back exact.
func TestLoadgenZipfLongTail(t *testing.T) {
	base := startOnDemandServer(t)
	var out bytes.Buffer
	err := run([]string{
		"-addr", base, "-clients", "8", "-requests", "40", "-write", "0",
		"-zipf", "1.4", "-seed", "6",
	}, &out)
	if err != nil {
		t.Fatalf("zipf run failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"long tail: read sources ~ Zipf(1.4) over all",
		"read answers:",
		"approximate (on-demand)",
		"non-2xx or transport errors: 0",
		"snapshot contract violations: 0",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
	// The Zipf head concentrates on low vertex IDs: with PromoteAfter 5 and
	// 320 reads, at least some answers must have come from each path.
	if strings.Contains(out.String(), "read answers: 0 exact") {
		t.Fatalf("no exact answers — promotion never happened:\n%s", out.String())
	}
	if strings.Contains(out.String(), ", 0 approximate") {
		t.Fatalf("no approximate answers — the tail never left the tracked set:\n%s", out.String())
	}
}

// TestLoadgenRepeatCacheTraffic re-issues every drawn read with -repeat: the
// repeats must come back marked cached, and the end-of-run report must show
// the server's cache and coalescing counters.
func TestLoadgenRepeatCacheTraffic(t *testing.T) {
	base := startOnDemandServer(t)
	var out bytes.Buffer
	err := run([]string{
		"-addr", base, "-clients", "4", "-requests", "10", "-write", "0", "-batchread", "0",
		"-zipf", "1.4", "-repeat", "3", "-seed", "8",
	}, &out)
	if err != nil {
		t.Fatalf("repeat run failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "served from the result cache") {
		t.Fatalf("report missing the cache line:\n%s", out.String())
	}
	if strings.Contains(out.String(), ", 0 served from the result cache") {
		t.Fatalf("repeats never hit the cache:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "server ondemand: cold_pushes=") {
		t.Fatalf("report missing the server on-demand counters:\n%s", out.String())
	}
	if strings.Contains(out.String(), "cache_hits=0 ") {
		t.Fatalf("server reports zero cache hits despite repeats:\n%s", out.String())
	}
}

// TestLoadgenZipfRejectsUntrackedServer asserts the failure mode the SLO
// exists for: the same Zipf mix against a server without on-demand serving
// turns cold sources into 404s and the run must fail.
func TestLoadgenZipfRejectsUntrackedServer(t *testing.T) {
	base := startServer(t)
	var out bytes.Buffer
	err := run([]string{
		"-addr", base, "-clients", "4", "-requests", "20", "-write", "0",
		"-zipf", "1.4", "-seed", "6",
	}, &out)
	if err == nil {
		t.Fatalf("zipf run against a 404-ing server must fail:\n%s", out.String())
	}
}

// TestLoadgenP99Gate asserts the SLO gate fires on an impossible target.
func TestLoadgenP99Gate(t *testing.T) {
	base := startServer(t)
	var out bytes.Buffer
	err := run([]string{
		"-addr", base, "-clients", "4", "-requests", "10", "-write", "0",
		"-max-p99", "1ns",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "exceeds the -max-p99 SLO") {
		t.Fatalf("p99 gate did not fire: %v\n%s", err, out.String())
	}
}

// TestLoadgenReportCoversWholeRun pins that the read p99 (and so the
// -max-p99 gate) covers every read of every client: 30 200 reads of which
// 200 take 50 ms have a true p99 of 2 ms, however many samples each client
// holds and whichever class is merged last.
func TestLoadgenReportCoversWholeRun(t *testing.T) {
	a, b := &clientResult{}, &clientResult{}
	for i := 0; i < 20_000; i++ {
		a.lat[opTopK].Observe(time.Millisecond)
	}
	for i := 0; i < 10_000; i++ {
		b.lat[opEstimate].Observe(2 * time.Millisecond)
	}
	for i := 0; i < 200; i++ {
		b.lat[opBatchRead].Observe(50 * time.Millisecond)
	}
	var out bytes.Buffer
	if err := report(&out, config{maxP99: 3 * time.Millisecond}, []*clientResult{a, b}, 0, time.Second); err != nil {
		t.Fatalf("report: %v\n%s", err, out.String())
	}
	_, line, ok := strings.Cut(out.String(), "read p99: ")
	if !ok {
		t.Fatalf("no read p99 line:\n%s", out.String())
	}
	p99, err := time.ParseDuration(strings.Fields(line)[0])
	if err != nil {
		t.Fatal(err)
	}
	// 2 ms lies in the histogram bucket (1.5·2^20 ns, 2^21 ns].
	if p99 <= 1_572_864*time.Nanosecond || p99 > 2_097_152*time.Nanosecond {
		t.Fatalf("read p99 %v outside the 2 ms bucket:\n%s", p99, out.String())
	}
}

func TestLoadgenFlagErrors(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-clients", "0"},
		{"-batch", "0"},
		{"-reads", "0"},
		{"-topk", "0", "-estimate", "0", "-batchread", "0", "-write", "0"},
		{"-topk", "-1"},
		{"-zipf", "1"},
		{"-zipf", "0.8"},
		{"-repeat", "-1"},
	} {
		if err := run(args, &out); err == nil {
			t.Fatalf("args %v must fail", args)
		}
	}
}

// startDegradedServer brings up a persistent server whose first WAL write
// after boot is scripted to fail, so the run starts inside a degraded
// window that the fast recovery probe heals mid-run.
func startDegradedServer(t *testing.T) string {
	t.Helper()
	edges, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: dynppr.ModelRMAT, Vertices: 200, Edges: 1500, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := dynppr.GraphFromEdges(edges)
	sources := g.TopDegreeVertices(3)
	so := dynppr.DefaultServiceOptions()
	so.Options.Epsilon = 1e-4
	so.PoolWorkers = 2
	in := faultfs.NewInjector(faultfs.OS)
	svc, err := dynppr.NewPersistentService(g, sources, so, dynppr.PersistOptions{
		Dir:          filepath.Join(t.TempDir(), "data"),
		Sync:         dynppr.SyncAlways,
		FS:           in,
		ProbeBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	in.Add(faultfs.Rule{Op: faultfs.OpWrite, Path: "wal"})
	srv := httpapi.NewServer(svc, httpapi.ServerOptions{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Wait() })
	t.Cleanup(func() { srv.Shutdown(t.Context()) })
	return srv.URL()
}

// TestLoadgenRetryDegraded runs a write-only mix into a server that degrades
// on the first write: without -retry-degraded those 503s would count as
// errors, with it every shed write is re-offered after the server's
// Retry-After and the run completes clean with the window accounted.
func TestLoadgenRetryDegraded(t *testing.T) {
	base := startDegradedServer(t)
	var out bytes.Buffer
	err := run([]string{
		"-addr", base, "-clients", "4", "-requests", "5", "-batch", "5",
		"-topk", "0", "-estimate", "0", "-batchread", "0", "-write", "100",
		"-retry-degraded", "-seed", "9",
	}, &out)
	if err != nil {
		t.Fatalf("loadgen failed through the degraded window: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"non-2xx or transport errors: 0",
		"degraded (503) retries:",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestLoadgenUnreachableServer(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-addr", "http://127.0.0.1:1", "-clients", "1", "-requests", "1"}, &out)
	if err == nil {
		t.Fatal("unreachable server must fail the health probe")
	}
	if !strings.Contains(err.Error(), "not healthy") {
		t.Fatalf("unexpected error: %v", err)
	}
}
