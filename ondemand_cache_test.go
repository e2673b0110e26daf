package dynppr

import (
	"context"
	"errors"
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
	so.OnDemand = OnDemandOptions{Enabled: true, Epsilon: 1e-3}
	svc, err := NewService(g, g.TopDegreeVertices(1), so)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	defer svc.Close()

	// Hold every cold-push token, so the concurrent probe queries all pile
	// onto one flight before any of them can run.
	release := holdColdPushTokens(svc.od)
	defer release()

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
	// to the token bound or waiting on the leader.
	for deadline := time.Now().Add(10 * time.Second); svc.od.cacheMisses.Load() < waiters; {
		if time.Now().After(deadline) {
			t.Fatal("waiters never reached the coalescer")
		}
		time.Sleep(100 * time.Microsecond)
	}
	release()
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
	// the same edges with the endpoints asked in the other order answers
	// every cold source — coalesced, cached or computed — with exactly the
	// floats of the one cold push.
	svc2, err := NewService(GraphFromEdges(edges), g.TopDegreeVertices(1), so)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	defer svc2.Close()
	csr := GraphFromEdges(edges).Snapshot()
	cfg := push.Config{Alpha: so.Options.Alpha, Epsilon: so.OnDemand.Epsilon}
	for _, src := range []VertexID{probe, 4_321, 19_999} {
		want, err := push.ColdPushCSR(csr, src, cfg, odMaxPushes)
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
		check("top-k first", top, est, tqi, eqi)
		est, eqi, err = svc2.QueryEstimate(src, v)
		if err != nil {
			t.Fatalf("QueryEstimate(%d,%d): %v", src, v, err)
		}
		top, tqi, err = svc2.QueryTopK(src, 10)
		if err != nil {
			t.Fatalf("QueryTopK(%d): %v", src, err)
		}
		check("estimate first", top, est, tqi, eqi)
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

// holdColdPushTokens takes every cold-push token, wedging each flight's
// leader at the bound until the returned release hands them back (once:
// callers also defer it, so a failing test does not wedge Close).
func holdColdPushTokens(od *onDemand) (release func()) {
	for range cap(od.tokens) {
		od.tokens <- struct{}{}
	}
	return sync.OnceFunc(func() {
		for range cap(od.tokens) {
			<-od.tokens
		}
	})
}

// waitCtx reports every time something starts to wait on it: select
// evaluates ctx.Done() on entry, so a receive from waits proves the caller
// has reached a select in compute — and, for a follower, that it has found
// its flight. waits is buffered past the ≤ 3 selects a test's queries enter.
type waitCtx struct {
	context.Context
	waits chan struct{}
}

func (c waitCtx) Done() <-chan struct{} {
	c.waits <- struct{}{}
	return c.Context.Done()
}

// TestOnDemandLeaderCancelFollowerRetries reaches compute's retry lap: a
// follower with a live context waits on a leader that gives up at the token
// bound on its own context. The follower must not inherit that error — it
// leads a fresh flight and returns the one cold push's bits. The tail pins
// Close at the bound: ErrServiceClosed for the blocked, and it returns only
// once every token is back (a held token is a push in flight).
func TestOnDemandLeaderCancelFollowerRetries(t *testing.T) {
	edges := odRingEdges(2_000, 14_000, 13)
	g := GraphFromEdges(edges)
	so := DefaultServiceOptions()
	so.OnDemand = OnDemandOptions{Enabled: true, Epsilon: 1e-3}
	svc, err := NewService(g, g.TopDegreeVertices(1), so)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	defer svc.Close()
	release := holdColdPushTokens(svc.od)
	defer release()

	const src = VertexID(200)
	leadCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lead := waitCtx{leadCtx, make(chan struct{}, 8)}
	follow := waitCtx{context.Background(), make(chan struct{}, 8)}
	leadErr := make(chan error, 1)
	go func() {
		_, _, err := svc.QueryTopKCtx(lead, src, 10)
		leadErr <- err
	}()
	<-lead.waits // the leader's flight is registered and it waits for a token
	type ans struct {
		top []VertexScore
		eps float64
		err error
	}
	followed := make(chan ans, 1)
	go func() {
		top, qi, err := svc.QueryTopKCtx(follow, src, 10)
		followed <- ans{top, qi.Epsilon, err}
	}()
	<-follow.waits // the follower found the leader's flight and waits on it
	cancel()
	if err := <-leadErr; !errors.Is(err, ErrOverloaded) {
		t.Fatalf("cancelled leader: %v, want ErrOverloaded", err)
	}
	select {
	case <-follow.waits: // the retry lap: the follower leads a fresh flight, at the bound
	case a := <-followed:
		t.Fatalf("follower with a live context inherited the leader's fate: %v", a.err)
	}
	release()
	a := <-followed
	csr := GraphFromEdges(edges).Snapshot()
	want, err := push.ColdPushCSR(csr, src,
		push.Config{Alpha: so.Options.Alpha, Epsilon: so.OnDemand.Epsilon}, odMaxPushes)
	if err != nil {
		t.Fatalf("ColdPushCSR: %v", err)
	}
	wantTop := push.AppendTopKSparse(nil, csr.NumVertices(), want.Vertices, want.Estimates, 10)
	if a.err != nil || len(a.top) != len(wantTop) || math.Float64bits(a.eps) != math.Float64bits(want.MaxResidual) {
		t.Fatalf("follower: err=%v, %d entries at epsilon %g; the cold push has %d at %g",
			a.err, len(a.top), a.eps, len(wantTop), want.MaxResidual)
	}
	for i := range wantTop {
		if a.top[i].Vertex != wantTop[i].Vertex || math.Float64bits(a.top[i].Score) != math.Float64bits(wantTop[i].Score) {
			t.Fatalf("follower entry %d: %v, the cold push has %v", i, a.top[i], wantTop[i])
		}
	}
	if st := svc.Stats().OnDemand; st.ColdPushes != 1 || st.Coalesced != 0 || st.Queries != 1 {
		t.Fatalf("pushes=%d coalesced=%d queries=%d, want 1/0/1", st.ColdPushes, st.Coalesced, st.Queries)
	}

	// Close fails a query blocked at the bound and waits held tokens out.
	release = holdColdPushTokens(svc.od)
	defer release()
	go func() {
		_, _, err := svc.QueryTopKCtx(follow, src+1, 10)
		leadErr <- err
	}()
	<-follow.waits
	closed := make(chan error, 1)
	go func() { closed <- svc.Close() }()
	if err := <-leadErr; !errors.Is(err, ErrServiceClosed) {
		t.Fatalf("query blocked at the bound across Close: %v, want ErrServiceClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while cold-push tokens were still held")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
}
