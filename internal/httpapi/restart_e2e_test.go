package httpapi_test

import (
	"context"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynppr"
	"dynppr/internal/httpapi"
)

// TestHTTPRestartRecovery is the end-to-end durability test of the serving
// stack: a dppr-httpd-shaped server (persistent Service + HTTP handler) on a
// temp data directory takes edge batches and source changes while concurrent
// readers hammer /topk and /estimate, checkpoints, and shuts down; a second
// server recovers from the same directory and must serve the exact same
// /topk rankings and /stats epochs — epochs never regress across the
// restart, and writes keep working afterwards.
func TestHTTPRestartRecovery(t *testing.T) {
	const (
		readers   = 16
		slides    = 5
		slideSize = 60
		epsilon   = 1e-4
	)
	dir := filepath.Join(t.TempDir(), "data")

	edges, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Name: "restart-e2e", Model: dynppr.ModelRMAT, Vertices: 500, Edges: 5000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := dynppr.NewStream(edges, 5)
	window, initial := dynppr.NewSlidingWindow(stream, 0.5)
	g := dynppr.GraphFromEdges(initial)
	sources := g.TopDegreeVertices(2)
	numVertices := g.NumVertices()

	so := dynppr.DefaultServiceOptions()
	so.Options.Epsilon = epsilon
	po := dynppr.PersistOptions{Dir: dir, Sync: dynppr.SyncAlways}

	svc, err := dynppr.NewPersistentService(g, sources, so, po)
	if err != nil {
		t.Fatal(err)
	}
	srv := httpapi.NewServer(svc, httpapi.ServerOptions{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	client := httpapi.NewClient(srv.URL(), nil)

	// Readers hammer the stable sources while the writer mutates; every
	// response must come from a converged snapshot and epochs must be
	// monotone per source within each reader.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	for r := 0; r < readers; r++ {
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
				var meta httpapi.SnapshotMeta
				if i%2 == 0 {
					res, err := client.TopK(source, 10)
					if err != nil {
						t.Errorf("reader %d: topk: %v", r, err)
						return
					}
					meta = res.Snapshot
				} else {
					res, err := client.Estimate(source, dynppr.VertexID((i*r)%numVertices))
					if err != nil {
						t.Errorf("reader %d: estimate: %v", r, err)
						return
					}
					meta = res.Snapshot
				}
				if !meta.Converged {
					t.Errorf("reader %d: non-converged snapshot served", r)
					return
				}
				if meta.Epoch < lastEpoch[source] {
					t.Errorf("reader %d: epoch regressed %d -> %d", r, lastEpoch[source], meta.Epoch)
					return
				}
				lastEpoch[source] = meta.Epoch
				reads.Add(1)
			}
		}(r)
	}

	// Writer: edge batches plus a live source addition, all over HTTP.
	extra := dynppr.VertexID(0)
	for extra == sources[0] || extra == sources[1] {
		extra++
	}
	for i := 0; i < slides; i++ {
		b := window.Slide(slideSize)
		if len(b) == 0 {
			t.Fatal("stream exhausted")
		}
		if _, err := client.ApplyEdges(httpapi.FromBatch(b)); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if _, err := client.UpdateSources([]dynppr.VertexID{extra}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := client.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if reads.Load() == 0 {
		t.Fatal("no concurrent reads completed")
	}

	// Capture what the first server serves, then shut it down cleanly.
	allSources := append(append([]dynppr.VertexID(nil), sources...), extra)
	type capture struct {
		topk  httpapi.TopKResult
		stats dynppr.SourceStats
	}
	before := make(map[dynppr.VertexID]capture)
	stats1, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats1.Service.Persistence == nil || stats1.Service.Persistence.Checkpoints < 2 {
		t.Fatalf("persistence stats missing or no checkpoints: %+v", stats1.Service.Persistence)
	}
	for _, s := range allSources {
		top, err := client.TopK(s, 15)
		if err != nil {
			t.Fatal(err)
		}
		var ss dynppr.SourceStats
		for _, cand := range stats1.Service.Sources {
			if cand.Source == s {
				ss = cand
			}
		}
		before[s] = capture{topk: top, stats: ss}
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

	// Second life: recover into a fresh handler and compare.
	svc2, err := dynppr.NewServiceFromRecovery(so, po)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	srv2 := httpapi.NewServer(svc2, httpapi.ServerOptions{Addr: "127.0.0.1:0"})
	if err := srv2.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv2.Shutdown(ctx)
		srv2.Wait()
	}()
	client2 := httpapi.NewClient(srv2.URL(), nil)

	got, err := client2.Sources()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(allSources) {
		t.Fatalf("recovered sources %v, want %d tracked", got, len(allSources))
	}
	for _, s := range allSources {
		top, err := client2.TopK(s, 15)
		if err != nil {
			t.Fatal(err)
		}
		want := before[s]
		if top.Snapshot.Epoch != want.topk.Snapshot.Epoch {
			t.Fatalf("source %d: epoch %d after restart, want %d (regression or skip)",
				s, top.Snapshot.Epoch, want.topk.Snapshot.Epoch)
		}
		if !top.Snapshot.Converged {
			t.Fatalf("source %d: recovered snapshot not converged", s)
		}
		if len(top.Results) != len(want.topk.Results) {
			t.Fatalf("source %d: topk length changed across restart", s)
		}
		for i := range top.Results {
			if top.Results[i] != want.topk.Results[i] {
				t.Fatalf("source %d: topk[%d] = %+v after restart, want %+v",
					s, i, top.Results[i], want.topk.Results[i])
			}
		}
	}
	stats2, err := client2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, ss := range stats2.Service.Sources {
		if prev := before[ss.Source].stats; ss.Epoch < prev.Epoch {
			t.Fatalf("source %d: /stats epoch regressed %d -> %d", ss.Source, prev.Epoch, ss.Epoch)
		}
	}
	if stats2.Service.Vertices != stats1.Service.Vertices || stats2.Service.Edges != stats1.Service.Edges {
		t.Fatalf("graph changed across restart: %d/%d -> %d/%d",
			stats1.Service.Vertices, stats1.Service.Edges, stats2.Service.Vertices, stats2.Service.Edges)
	}

	// The recovered server keeps accepting writes, and epochs advance past
	// the restart point.
	b := window.Slide(slideSize)
	if _, err := client2.ApplyEdges(httpapi.FromBatch(b)); err != nil {
		t.Fatal(err)
	}
	for _, s := range allSources {
		top, err := client2.TopK(s, 5)
		if err != nil {
			t.Fatal(err)
		}
		if want := before[s].topk.Snapshot.Epoch + 1; top.Snapshot.Epoch != want {
			t.Fatalf("source %d: post-restart write epoch %d, want %d", s, top.Snapshot.Epoch, want)
		}
	}
}
