package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynppr"
)

// TestFlightGroupSingleflight pins the coalescing semantics deterministically
// by holding the leader's fn open: followers that arrive while it is in
// flight share its result without re-running fn, and once the flight is gone
// the next caller leads again.
func TestFlightGroupSingleflight(t *testing.T) {
	var g flightGroup
	release := make(chan struct{})
	started := make(chan struct{})
	var calls atomic.Int32
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		v, shared, err := g.do("k", func() (any, error) {
			calls.Add(1)
			close(started)
			<-release
			return 42, nil
		})
		if shared || err != nil || v != 42 {
			t.Errorf("leader got (%v, shared=%t, %v), want (42, false, nil)", v, shared, err)
		}
	}()
	<-started

	const followers = 4
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := g.do("k", func() (any, error) {
				t.Error("follower fn ran despite an in-flight call")
				return nil, nil
			})
			if !shared || err != nil || v != 42 {
				t.Errorf("follower got (%v, shared=%t, %v), want (42, true, nil)", v, shared, err)
			}
		}()
	}
	waitForWaiters(t, &g, "k", followers)
	close(release)
	wg.Wait()
	<-leaderDone
	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times for %d concurrent calls, want 1", calls.Load(), followers+1)
	}

	// The flight is gone: a fresh call must lead, not observe stale state.
	v, shared, err := g.do("k", func() (any, error) { return 7, nil })
	if shared || err != nil || v != 7 {
		t.Fatalf("post-flight call got (%v, shared=%t, %v), want (7, false, nil)", v, shared, err)
	}
}

// TestHandlerCoalescesInFlightTopK drives a real HTTP request into a /topk
// flight held open by another caller: the request must join the flight
// instead of reading the snapshot itself, return the identical ranking, and
// increment the coalesced counter surfaced in /stats and /metrics.
func TestHandlerCoalescesInFlightTopK(t *testing.T) {
	edges, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: dynppr.ModelRMAT, Vertices: 300, Edges: 2400, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	graph := dynppr.GraphFromEdges(edges)
	sources := graph.TopDegreeVertices(1)
	so := dynppr.DefaultServiceOptions()
	so.Options.Epsilon = 1e-4
	svc, err := dynppr.NewService(graph, sources, so)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := NewHandler(svc)
	ts := httptest.NewServer(h)
	defer ts.Close()

	source := sources[0]
	key := strconv.Itoa(int(source)) + "/25"
	release := make(chan struct{})
	started := make(chan struct{})
	leaderDone := make(chan struct{})
	var leaderVal any
	go func() {
		defer close(leaderDone)
		leaderVal, _, _ = h.flights.do(key, func() (any, error) {
			close(started)
			<-release
			return h.topK(context.Background(), source, 25)
		})
	}()
	<-started

	type httpResult struct {
		res TopKResult
		err error
	}
	resCh := make(chan httpResult, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/topk?source=" + strconv.Itoa(int(source)) + "&k=25")
		if err != nil {
			resCh <- httpResult{err: err}
			return
		}
		defer resp.Body.Close()
		var out httpResult
		if resp.StatusCode != http.StatusOK {
			out.err = &APIError{StatusCode: resp.StatusCode}
		} else {
			out.err = json.NewDecoder(resp.Body).Decode(&out.res)
		}
		resCh <- out
	}()
	// Only release the flight once the HTTP request has provably joined it,
	// so the test is deterministic on any core count.
	waitForWaiters(t, &h.flights, key, 1)
	close(release)

	got := <-resCh
	if got.err != nil {
		t.Fatalf("coalesced request failed: %v", got.err)
	}
	<-leaderDone
	want := leaderVal.(*TopKResult)
	if got.res.Snapshot.Epoch != want.Snapshot.Epoch || got.res.K != want.K ||
		len(got.res.Results) != len(want.Results) {
		t.Fatalf("coalesced response diverged from the flight result: %+v vs %+v",
			got.res.Snapshot, want.Snapshot)
	}
	if len(got.res.Results) == 0 || !got.res.Snapshot.Converged {
		t.Fatalf("coalesced response not a converged ranking: %+v", got.res)
	}
	if n := h.metrics.coalesced.Load(); n != 1 {
		t.Fatalf("coalesced counter = %d, want 1", n)
	}
	if ov := h.metrics.Overload(); ov.Coalesced != 1 {
		t.Fatalf("/stats overload coalesced = %d, want 1", ov.Coalesced)
	}
}

func waitForWaiters(t *testing.T, g *flightGroup, key string, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.inFlightWaiters(key) < want {
		if time.Now().After(deadline) {
			t.Fatalf("flight %q never reached %d waiters", key, want)
		}
		time.Sleep(time.Millisecond)
	}
}
