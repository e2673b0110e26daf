package dynppr

import (
	"math"
	"sync"
	"testing"
	"time"

	"dynppr/internal/push"
)

// TestODCacheDropsDeadGenerations pins the cache's generation rule with
// exact residency: a put for a newer generation drops every older entry (none
// can be requested again), and a late put for an older generation — a query
// pinned before the write — is ignored instead of parking a dead answer.
func TestODCacheDropsDeadGenerations(t *testing.T) {
	c := newODCache(8)
	answer := func(n int) *odEntry {
		return &odEntry{ids: make([]VertexID, n), vals: make([]float64, n)}
	}
	want := func(what string, entries int, answerEntries int64) {
		t.Helper()
		e, a, b := c.resident()
		if e != entries || a != answerEntries || b != 12*answerEntries {
			t.Fatalf("%s: resident entries=%d sparse=%d bytes=%d, want %d/%d/%d",
				what, e, a, b, entries, answerEntries, 12*answerEntries)
		}
	}
	c.put(odKey{source: 1, gen: 5}, answer(3))
	c.put(odKey{source: 2, gen: 5}, answer(4))
	want("two answers at generation 5", 2, 7)

	c.put(odKey{source: 3, gen: 6}, answer(2))
	want("first answer at generation 6", 1, 2)
	if c.get(odKey{source: 1, gen: 5}) != nil {
		t.Fatal("generation-5 answer survived a generation-6 put")
	}

	c.put(odKey{source: 1, gen: 5}, answer(3))
	want("late generation-5 put", 1, 2)
	if c.get(odKey{source: 1, gen: 5}) != nil {
		t.Fatal("late put for a dead generation was cached")
	}

	c.put(odKey{source: 3, gen: 6}, answer(5))
	want("overwrite in place", 1, 5)
	if e := c.get(odKey{source: 3, gen: 6}); e == nil || len(e.ids) != 5 {
		t.Fatal("overwritten entry not served")
	}
}

// TestOnDemandColdQueryCoalescingAndCache is the concurrency tier's
// acceptance test: N identical concurrent cold queries execute exactly one
// push (the coalesce counter accounts for every waiter), repeat queries with
// no interleaved mutation are served from the result cache, an effective
// mutation invalidates the cache through the generation key alone — and
// however an answer was produced, its bits are those of the one cold push.
func TestOnDemandColdQueryCoalescingAndCache(t *testing.T) {
	edges := odRingEdges(20_000, 140_000, 13)
	g := GraphFromEdges(edges)
	so := DefaultServiceOptions()
	// A single worker serializes the pushes, so wedging it below pins every
	// query in admission until the test lets go.
	so.OnDemand = OnDemandOptions{Enabled: true, Epsilon: 1e-3, Workers: 1}
	svc, err := NewService(g, g.TopDegreeVertices(1), so)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	defer svc.Close()

	// Occupy the single worker (the send returns once it has taken the job),
	// so the concurrent probe queries all pile onto one flight before any of
	// them can run.
	release := make(chan struct{})
	svc.od.tasks <- func() { <-release }

	const probe = VertexID(200)
	const waiters = 8
	type ans struct {
		top []VertexScore
		qi  QueryInfo
		err error
	}
	answers := make([]ans, waiters)
	var done sync.WaitGroup
	done.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func(i int) {
			defer done.Done()
			top, qi, err := svc.QueryTopK(probe, 10)
			answers[i] = ans{top, qi, err}
		}(i)
	}
	// Every waiter has missed the cache, so it is on the flight — leading it
	// into pool admission or waiting on the leader.
	for deadline := time.Now().Add(10 * time.Second); svc.od.cacheMisses.Load() < waiters; {
		if time.Now().After(deadline) {
			t.Fatal("waiters never reached the coalescer")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	done.Wait()

	for i, a := range answers {
		if a.err != nil {
			t.Fatalf("waiter %d: %v", i, a.err)
		}
		if !a.qi.Approx || a.qi.Epsilon <= 0 {
			t.Fatalf("waiter %d: approx=%v epsilon=%g", i, a.qi.Approx, a.qi.Epsilon)
		}
		if len(a.top) != len(answers[0].top) {
			t.Fatalf("waiter %d: answer shape diverged", i)
		}
		for j := range a.top {
			if a.top[j] != answers[0].top[j] {
				t.Fatalf("waiter %d entry %d: %v vs %v", i, j, a.top[j], answers[0].top[j])
			}
		}
	}

	st := svc.Stats().OnDemand
	// Exactly one push for the one (source, generation): every probe query
	// either led the flight or shared it — none pushed again.
	if st.ColdPushes != 1 {
		t.Fatalf("cold pushes = %d, want exactly 1 (one coalesced probe)", st.ColdPushes)
	}
	if st.Coalesced+st.CacheHits != waiters-1 {
		t.Fatalf("coalesced=%d cacheHits=%d, want them to cover the %d waiters",
			st.Coalesced, st.CacheHits, waiters-1)
	}
	if st.Coalesced == 0 {
		t.Fatal("coalesce counter did not advance: no waiter shared the in-flight push")
	}
	if st.Queries != waiters {
		t.Fatalf("queries = %d, want %d", st.Queries, waiters)
	}

	// A repeat query with no interleaved mutation is a cache hit and returns
	// the identical answer; an estimate for the same source reads the same
	// entry.
	hitsBefore := st.CacheHits
	again, qi, err := svc.QueryTopK(probe, 10)
	if err != nil {
		t.Fatalf("repeat QueryTopK: %v", err)
	}
	if !qi.Cached {
		t.Fatal("repeat cold query was not served from the result cache")
	}
	for j := range again {
		if again[j] != answers[0].top[j] {
			t.Fatalf("cached entry %d: %v vs %v", j, again[j], answers[0].top[j])
		}
	}
	if _, eqi, err := svc.QueryEstimate(probe, 0); err != nil || !eqi.Cached {
		t.Fatalf("estimate after topk: err=%v cached=%v (want cache hit on the shared entry)", err, eqi.Cached)
	}
	if st := svc.Stats().OnDemand; st.CacheHits != hitsBefore+2 {
		t.Fatalf("cache hits %d -> %d, want +2", hitsBefore, st.CacheHits)
	}

	// (source, generation) → bits, with no exceptions: a second service over
	// the same edges with a different pool, no cache, and the endpoints asked
	// in the other order answers every cold source — coalesced, cached or
	// computed — with exactly the floats of the one cold push.
	so2 := so
	so2.OnDemand.Workers, so2.OnDemand.ResultCache = 4, -1
	svc2, err := NewService(GraphFromEdges(edges), g.TopDegreeVertices(1), so2)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	defer svc2.Close()
	csr := GraphFromEdges(edges).Snapshot()
	cfg := push.Config{Alpha: so.Options.Alpha, Epsilon: so.OnDemand.Epsilon}
	for _, src := range []VertexID{probe, 4_321, 19_999} {
		want, err := push.ColdPushCSR(csr, src, cfg, svc.od.opts.MaxPushes)
		if err != nil {
			t.Fatalf("ColdPushCSR(%d): %v", src, err)
		}
		wantTop := push.AppendTopKSparse(nil, csr.NumVertices(), want.Vertices, want.Estimates, 10)
		v := wantTop[3].Vertex
		check := func(what string, top []VertexScore, est float64, qis ...QueryInfo) {
			t.Helper()
			for _, qi := range qis {
				if !qi.Approx || math.Float64bits(qi.Epsilon) != math.Float64bits(want.MaxResidual) {
					t.Fatalf("%s source %d: approx=%v epsilon %g, the cold push left %g", what, src, qi.Approx, qi.Epsilon, want.MaxResidual)
				}
			}
			if len(top) != len(wantTop) || math.Float64bits(est) != math.Float64bits(wantTop[3].Score) {
				t.Fatalf("%s source %d: %d entries, estimate(%d) %g; the cold push has %d and %g",
					what, src, len(top), v, est, len(wantTop), wantTop[3].Score)
			}
			for i := range top {
				if top[i].Vertex != wantTop[i].Vertex || math.Float64bits(top[i].Score) != math.Float64bits(wantTop[i].Score) {
					t.Fatalf("%s source %d entry %d: %v, the cold push has %v", what, src, i, top[i], wantTop[i])
				}
			}
		}
		top, tqi, err := svc.QueryTopK(src, 10)
		if err != nil {
			t.Fatalf("QueryTopK(%d): %v", src, err)
		}
		est, eqi, err := svc.QueryEstimate(src, v)
		if err != nil {
			t.Fatalf("QueryEstimate(%d,%d): %v", src, v, err)
		}
		check("workers=1 cached top-k first", top, est, tqi, eqi)
		est, eqi, err = svc2.QueryEstimate(src, v)
		if err != nil {
			t.Fatalf("QueryEstimate(%d,%d): %v", src, v, err)
		}
		top, tqi, err = svc2.QueryTopK(src, 10)
		if err != nil {
			t.Fatalf("QueryTopK(%d): %v", src, err)
		}
		check("workers=4 uncached estimate first", top, est, tqi, eqi)
	}
	pushes := svc.Stats().OnDemand.ColdPushes

	// An effective mutation moves the generation: the cached entry is dead
	// and the next query pushes again.
	if _, err := svc.ApplyBatch(Batch{{U: 1, V: 20_000, Op: Insert}}); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	if _, qi, err := svc.QueryTopK(probe, 10); err != nil || qi.Cached {
		t.Fatalf("post-mutation query: err=%v cached=%v (want recompute)", err, qi.Cached)
	}
	if st := svc.Stats().OnDemand; st.ColdPushes != pushes+1 {
		t.Fatalf("cold pushes after mutation = %d, want %d", st.ColdPushes, pushes+1)
	}
}
