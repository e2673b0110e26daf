package dynppr

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dynppr/internal/push"
)

// TestODCacheDropsDeadGenerations pins the answer table's generation and
// accounting rules with exact residency: a claim at a newer generation drops
// every older entry (none can be requested again), a late answer for an older
// generation — a query pinned before the write — is computed but not tabled,
// a source whose entry was evicted in flight is re-accounted for its
// replacement alone, and a failed answer leaves the table so the next
// identical query computes afresh.
func TestODCacheDropsDeadGenerations(t *testing.T) {
	c := newODTable(2)
	// lead claims source at gen as the computing query; a join or a hit
	// fails the test.
	lead := func(source VertexID, gen uint64) *odEntry {
		t.Helper()
		e, tabled := c.claim(source, gen)
		if tabled {
			t.Fatalf("claim(%d, %d) found a tabled entry, want a fresh one", source, gen)
		}
		return e
	}
	// finish completes a claimed entry the way compute does: fill, settle,
	// release the waiters.
	finish := func(e *odEntry, n int, err error) {
		e.ids, e.vals, e.err = make([]VertexID, n), make([]float64, n), err
		c.settle(e)
		close(e.done)
	}
	want := func(what string, entries int, answerEntries int64) {
		t.Helper()
		e, a, b := c.resident()
		if e != entries || a != answerEntries || b != 12*answerEntries {
			t.Fatalf("%s: resident entries=%d sparse=%d bytes=%d, want %d/%d/%d",
				what, e, a, b, entries, answerEntries, 12*answerEntries)
		}
	}
	finish(lead(1, 5), 3, nil)
	finish(lead(2, 5), 4, nil)
	want("two answers at generation 5", 2, 7)

	finish(lead(3, 6), 2, nil)
	want("first answer at generation 6", 1, 2)
	late := lead(1, 5)
	want("claim at generation 5", 1, 2)
	finish(late, 3, nil)
	want("late generation-5 answer", 1, 2)
	lead(1, 5) // still not tabled: a generation-5 claim computes again

	// Source 9's first entry is evicted in flight by capacity pressure; its
	// replacement is the one accounted, and the evicted entry's late settle
	// changes nothing.
	evicted := lead(9, 6)
	ten := lead(10, 6) // evicts 3
	eleven := lead(11, 6)
	want("two in flight after two evictions", 2, 0)
	replacement := lead(9, 6) // evicts 10
	finish(replacement, 5, nil)
	finish(evicted, 3, nil)
	finish(ten, 7, nil)
	want("replaced answer", 2, 5)
	if e, tabled := c.claim(9, 6); !tabled || e != replacement {
		t.Fatal("the replacement answer is not the tabled one")
	}
	finish(eleven, 1, nil)
	want("replaced answer and its neighbour", 2, 6)

	failed := lead(12, 6) // evicts 11
	want("failed answer in flight", 2, 5)
	finish(failed, 0, ErrOverloaded)
	want("failed answer settled", 1, 5)
	lead(12, 6) // the failure left the table: the next identical query computes
}

// TestOnDemandTableAccountingUnderChurn drives the answer table past its
// capacity with concurrent identical and distinct cold queries and an
// effective write mid-run. Throughout, the table holds at most its capacity
// and 12 B per resident sparse entry; at rest, every tabled entry has settled
// and the resident totals are exactly what the tabled answers hold, and every
// query was counted once — as a hit, a coalesced query or a cold push.
func TestOnDemandTableAccountingUnderChurn(t *testing.T) {
	const vertices = 1_000
	g := GraphFromEdges(odRingEdges(vertices, 5_000, 5))
	so := DefaultServiceOptions()
	so.OnDemand = OnDemandOptions{Enabled: true, Epsilon: 1e-3}
	svc, err := NewService(g, []VertexID{0}, so)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	defer svc.Close()

	check := func(when string, st *OnDemandStats) error {
		if st.CacheBytes != 12*st.CacheAnswerEntries || st.CacheEntries > st.CacheCapacity {
			return fmt.Errorf("%s: %d B for %d sparse entries in %d of %d slots",
				when, st.CacheBytes, st.CacheAnswerEntries, st.CacheEntries, st.CacheCapacity)
		}
		return nil
	}
	const workers, perWorker = 8, 200
	errs := make(chan error, workers+1)
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := check("mid-run", svc.Stats().OnDemand); err != nil {
				errs <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := range perWorker {
				// Even queries share a hot set of eight sources, so identical
				// queries meet in flight and in the table; odd ones spread over
				// the graph and overrun the table's capacity.
				src := VertexID(1 + rng.Intn(vertices-1))
				if i%2 == 0 {
					src = VertexID(1 + rng.Intn(8))
				}
				if _, _, err := svc.QueryTopKCtx(context.Background(), src, 5); err != nil {
					errs <- fmt.Errorf("QueryTopKCtx(%d): %v", src, err)
					return
				}
				if w == 0 && i == perWorker/2 {
					if res, err := svc.ApplyBatch(Batch{{U: 1, V: 2, Op: Delete}}); err != nil || res.Applied != 1 {
						errs <- fmt.Errorf("mid-run write: applied %d, err %v", res.Applied, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-sampled
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := svc.Stats().OnDemand
	if err := check("at rest", st); err != nil {
		t.Fatal(err)
	}
	if st.Queries != workers*perWorker || st.CacheHits+st.Coalesced+st.ColdPushes != st.Queries {
		t.Fatalf("%d queries: %d hits + %d coalesced + %d cold pushes, want each of %d counted once",
			st.Queries, st.CacheHits, st.Coalesced, st.ColdPushes, workers*perWorker)
	}
	if st.ColdPushes <= int64(st.CacheCapacity) {
		t.Fatalf("%d cold pushes never overran the %d-answer table", st.ColdPushes, st.CacheCapacity)
	}
	table := svc.od.table
	table.mu.Lock()
	defer table.mu.Unlock()
	var held int64
	for el := table.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*odEntry)
		if !e.settled {
			t.Fatalf("tabled entry for %d never settled", e.source)
		}
		held += int64(len(e.ids))
	}
	if held != table.answerEntries {
		t.Fatalf("tabled answers hold %d sparse entries, the table accounts %d", held, table.answerEntries)
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
			top, qi, err := svc.QueryTopKCtx(context.Background(), probe, 10)
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
		if !a.qi.Approx || a.qi.Snapshot.Epsilon <= 0 {
			t.Fatalf("waiter %d: approx=%v epsilon=%g", i, a.qi.Approx, a.qi.Snapshot.Epsilon)
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
	again, qi, err := svc.QueryTopKCtx(context.Background(), probe, 10)
	if err != nil {
		t.Fatalf("repeat QueryTopKCtx: %v", err)
	}
	if !qi.Cached {
		t.Fatal("repeat cold query was not served from the result cache")
	}
	for j := range again {
		if again[j] != answers[0].top[j] {
			t.Fatalf("cached entry %d: %v vs %v", j, again[j], answers[0].top[j])
		}
	}
	if _, eqi, err := svc.QueryEstimateCtx(context.Background(), probe, 0); err != nil || !eqi.Cached {
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
				if !qi.Approx || math.Float64bits(qi.Snapshot.Epsilon) != math.Float64bits(want.MaxResidual) {
					t.Fatalf("%s source %d: approx=%v epsilon %g, the cold push left %g", what, src, qi.Approx, qi.Snapshot.Epsilon, want.MaxResidual)
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
		top, tqi, err := svc.QueryTopKCtx(context.Background(), src, 10)
		if err != nil {
			t.Fatalf("QueryTopKCtx(%d): %v", src, err)
		}
		est, eqi, err := svc.QueryEstimateCtx(context.Background(), src, v)
		if err != nil {
			t.Fatalf("QueryEstimateCtx(%d,%d): %v", src, v, err)
		}
		check("top-k first", top, est, tqi, eqi)
		est, eqi, err = svc2.QueryEstimateCtx(context.Background(), src, v)
		if err != nil {
			t.Fatalf("QueryEstimateCtx(%d,%d): %v", src, v, err)
		}
		top, tqi, err = svc2.QueryTopKCtx(context.Background(), src, 10)
		if err != nil {
			t.Fatalf("QueryTopKCtx(%d): %v", src, err)
		}
		check("estimate first", top, est, tqi, eqi)
	}
	pushes := svc.Stats().OnDemand.ColdPushes

	// An effective mutation moves the generation: the cached entry is dead
	// and the next query pushes again.
	if _, err := svc.ApplyBatch(Batch{{U: 1, V: 20_000, Op: Insert}}); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	if _, qi, err := svc.QueryTopKCtx(context.Background(), probe, 10); err != nil || qi.Cached {
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
		followed <- ans{top, qi.Snapshot.Epsilon, err}
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
