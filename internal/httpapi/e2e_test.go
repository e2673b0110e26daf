package httpapi_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynppr"
	"dynppr/internal/httpapi"
)

// TestHTTPAPIEndToEnd is the serving-layer acceptance test: a real TCP
// server on a loopback port, 64 concurrent reader goroutines driving the Go
// client, and one writer streaming sliding-window update batches through
// POST /edges while a churn goroutine adds and removes an extra tracked
// source. It asserts the remote serving contract end to end:
//
//   - every reader response is 2xx (readers only touch stable sources),
//   - every response was served from a converged snapshot,
//   - per source, the snapshot epoch never decreases across any one
//     client's successive reads,
//   - the final epoch equals 1 (cold start) + the number of effective
//     batches, i.e. no publication was lost or duplicated,
//   - graceful shutdown drains cleanly.
//
// The test is deliberately run in CI under -race: the interesting failures
// here are racy snapshot recycling and handler state sharing, not logic.
func TestHTTPAPIEndToEnd(t *testing.T) {
	const (
		readers   = 64
		slides    = 6
		slideSize = 80
		epsilon   = 1e-4
	)

	universe := testEdges(t, 300, 4000, 42)
	stream := dynppr.NewStream(universe, 43)
	window, initial := dynppr.NewSlidingWindow(stream, 0.25)
	g := dynppr.GraphFromEdges(initial)
	stable := g.TopDegreeVertices(4)

	so := dynppr.DefaultServiceOptions()
	so.Options.Epsilon = epsilon
	so.PoolWorkers = 2
	svc, err := dynppr.NewService(g, stable, so)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	srv := httpapi.NewServer(svc, httpapi.ServerOptions{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	base := srv.URL()
	hc := &http.Client{Timeout: 30 * time.Second}

	var (
		stop       atomic.Bool
		served     atomic.Int64
		badStatus  atomic.Int64
		violations = make(chan string, readers)
	)
	violation := func(format string, args ...any) {
		select {
		case violations <- fmt.Sprintf(format, args...):
		default:
		}
	}

	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(id int) {
			defer readerWG.Done()
			client := httpapi.NewClient(base, hc)
			rng := rand.New(rand.NewSource(int64(id)))
			epochs := make(map[dynppr.VertexID]uint64, len(stable))
			check := func(m httpapi.SnapshotMeta) {
				if !m.Converged {
					violation("reader %d: source %d epoch %d not converged (residual %g)",
						id, m.Source, m.Epoch, m.MaxResidual)
				}
				if last, ok := epochs[m.Source]; ok && m.Epoch < last {
					violation("reader %d: source %d epoch went backwards %d -> %d",
						id, m.Source, last, m.Epoch)
				}
				epochs[m.Source] = m.Epoch
			}
			for !stop.Load() {
				src := stable[rng.Intn(len(stable))]
				var err error
				switch rng.Intn(3) {
				case 0:
					var top httpapi.TopKResult
					if top, err = client.TopK(src, 10); err == nil {
						check(top.Snapshot)
					}
				case 1:
					var est httpapi.EstimateResult
					if est, err = client.Estimate(src, dynppr.VertexID(rng.Intn(300))); err == nil {
						check(est.Snapshot)
					}
				default:
					var results []httpapi.QueryResult
					results, err = client.Query([]httpapi.Query{
						{Kind: httpapi.KindTopK, Source: src, K: 5},
						{Kind: httpapi.KindEstimate, Source: stable[rng.Intn(len(stable))],
							Vertex: dynppr.VertexID(rng.Intn(300))},
					})
					if err == nil {
						for _, res := range results {
							switch {
							case res.TopK != nil:
								check(res.TopK.Snapshot)
							case res.Estimate != nil:
								check(res.Estimate.Snapshot)
							default:
								violation("reader %d: inline query error: %s", id, res.Error)
							}
						}
					}
				}
				if err != nil {
					badStatus.Add(1)
					violation("reader %d: %v", id, err)
					return
				}
				served.Add(1)
			}
		}(r)
	}

	// Source churn rides along with the writer: live adds and removes must
	// never disturb readers of the stable sources.
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		client := httpapi.NewClient(base, hc)
		const extra = dynppr.VertexID(11)
		for i := 0; i < 3 && !stop.Load(); i++ {
			if _, err := client.UpdateSources([]dynppr.VertexID{extra}, nil); err != nil {
				violation("churn add: %v", err)
				return
			}
			if _, err := client.TopK(extra, 3); err != nil {
				violation("churn read: %v", err)
				return
			}
			if _, err := client.UpdateSources(nil, []dynppr.VertexID{extra}); err != nil {
				violation("churn remove: %v", err)
				return
			}
		}
	}()

	// The writer streams window slides through the API while reads are in
	// flight, counting the batches that actually changed the graph.
	writer := httpapi.NewClient(base, hc)
	effective := 0
	for i := 0; i < slides; i++ {
		batch := window.Slide(slideSize)
		if len(batch) == 0 {
			break
		}
		res, err := writer.ApplyEdges(httpapi.FromBatch(batch))
		if err != nil {
			t.Fatalf("writer slide %d: %v", i, err)
		}
		if res.Applied > 0 {
			effective++
		}
	}
	<-churnDone
	stop.Store(true)
	readerWG.Wait()

	if n := badStatus.Load(); n > 0 {
		t.Errorf("%d reader request(s) returned non-2xx or failed", n)
	}
	close(violations)
	for v := range violations {
		t.Error(v)
	}
	if served.Load() == 0 {
		t.Fatal("no reader queries completed")
	}
	t.Logf("served %d concurrent reads across %d readers over %d effective batches",
		served.Load(), readers, effective)

	// Publication accounting: cold start plus one epoch per effective batch.
	for _, src := range stable {
		info, err := writer.TopK(src, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(1 + effective); info.Snapshot.Epoch != want {
			t.Errorf("source %d: final epoch %d, want %d", src, info.Snapshot.Epoch, want)
		}
	}

	// Graceful shutdown: drain, then the port must refuse new requests
	// while the service itself is still queryable in-process.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := srv.Wait(); err != nil {
		t.Fatalf("serve loop: %v", err)
	}
	if err := httpapi.NewClient(base, hc).Health(); err == nil {
		t.Fatal("server still accepting requests after shutdown")
	}
	if _, _, err := svc.AppendTopK(nil, stable[0], 1); err != nil {
		t.Fatalf("service must outlive its server: %v", err)
	}
}
