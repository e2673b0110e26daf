package dynppr_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dynppr"
	"dynppr/internal/power"
)

// TestOnDemandColdQueryCoalescingAndCache is the tentpole's acceptance test:
// N identical concurrent cold queries execute exactly one push (the
// coalesce counter accounts for every waiter), repeat queries with no
// interleaved mutation are served from the result cache, and an effective
// mutation invalidates the cache through the generation key alone.
func TestOnDemandColdQueryCoalescingAndCache(t *testing.T) {
	edges := odTestEdges(t, 20_000, 120_000, 13)
	g := dynppr.GraphFromEdges(edges)
	so := dynppr.DefaultServiceOptions()
	// A deep tracked ε gives the budgeted wedge query below a long ladder to
	// descend, so it occupies the worker for its whole budget.
	so.Options.Epsilon = 1e-9
	so.OnDemand = dynppr.OnDemandOptions{
		Enabled: true, Epsilon: 1e-3, Seed: 5,
		// A single worker serializes the pushes, so the wedge query below
		// pins every later query in admission until it completes.
		Workers: 1,
	}
	svc, err := dynppr.NewService(g, g.TopDegreeVertices(1), so)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	defer svc.Close()

	const wedge, probe = dynppr.VertexID(100), dynppr.VertexID(200)

	// Occupy the single worker with a slow cold push — the generous budget
	// keeps the ε ladder refining — so the concurrent probe queries all pile
	// onto one flight before any of them can run.
	wedgeDone := make(chan error, 1)
	go func() {
		_, _, err := svc.QueryTopKOpts(context.Background(), wedge, 5,
			dynppr.QueryOptions{Budget: 1500 * time.Millisecond})
		wedgeDone <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for svc.Stats().OnDemand.PoolDepth == 0 {
		if time.Now().After(deadline) {
			t.Fatal("wedge query never reached the worker pool")
		}
		time.Sleep(100 * time.Microsecond)
	}

	const waiters = 8
	type ans struct {
		top []dynppr.VertexScore
		qi  dynppr.QueryInfo
		err error
	}
	answers := make([]ans, waiters)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			top, qi, err := svc.QueryTopK(probe, 10)
			answers[i] = ans{top, qi, err}
		}(i)
	}
	start.Done()
	done.Wait()
	if err := <-wedgeDone; err != nil {
		t.Fatalf("wedge query: %v", err)
	}

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
	// Exactly one push per distinct (source, generation): the wedge and the
	// probe. Every probe query either shared the flight or read the entry it
	// published — none pushed again.
	if st.ColdPushes != 2 {
		t.Fatalf("cold pushes = %d, want exactly 2 (wedge + one coalesced probe)", st.ColdPushes)
	}
	if st.Coalesced+st.CacheHits != waiters-1 {
		t.Fatalf("coalesced=%d cacheHits=%d, want them to cover the %d waiters",
			st.Coalesced, st.CacheHits, waiters-1)
	}
	if st.Coalesced == 0 {
		t.Fatal("coalesce counter did not advance: no waiter shared the in-flight push")
	}
	if st.Queries != waiters+1 {
		t.Fatalf("queries = %d, want %d", st.Queries, waiters+1)
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

	// An effective mutation moves the generation: the cached entry is dead
	// and the next query pushes again.
	if _, err := svc.ApplyBatch(dynppr.Batch{{U: 1, V: 20_000, Op: dynppr.Insert}}); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	if _, qi, err := svc.QueryTopK(probe, 10); err != nil || qi.Cached {
		t.Fatalf("post-mutation query: err=%v cached=%v (want recompute)", err, qi.Cached)
	}
	if st := svc.Stats().OnDemand; st.ColdPushes != 3 {
		t.Fatalf("cold pushes after mutation = %d, want 3", st.ColdPushes)
	}
}

// TestOnDemandResultCacheBounds pins the LRU bound and the disable knob.
func TestOnDemandResultCacheBounds(t *testing.T) {
	edges := odTestEdges(t, 200, 1200, 3)

	// Capacity 2: the third distinct source evicts the first.
	g := dynppr.GraphFromEdges(edges)
	so := dynppr.DefaultServiceOptions()
	so.OnDemand = dynppr.OnDemandOptions{Enabled: true, Epsilon: 1e-3, ResultCache: 2}
	svc, err := dynppr.NewService(g, g.TopDegreeVertices(1), so)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	defer svc.Close()
	// resident[i] is the summed sparse length of the cached answers after
	// the i-th query; it must follow every insert and eviction exactly.
	var resident []int64
	for _, src := range []dynppr.VertexID{10, 20, 30} {
		if _, _, err := svc.QueryTopK(src, 5); err != nil {
			t.Fatalf("QueryTopK(%d): %v", src, err)
		}
		st := svc.Stats().OnDemand
		if st.CacheBytes != 12*st.CacheAnswerEntries {
			t.Fatalf("cache holds %d B for %d sparse entries, want 12 B each", st.CacheBytes, st.CacheAnswerEntries)
		}
		resident = append(resident, st.CacheAnswerEntries)
	}
	len10, len20 := resident[0], resident[1]-resident[0]
	len30 := resident[2] - len20 // 10 was evicted
	if len10 <= 0 || len20 <= 0 || len30 <= 0 {
		t.Fatalf("resident sparse entries %v do not decompose into three answers", resident)
	}
	st := svc.Stats().OnDemand
	if st.CacheEntries != 2 || st.CacheCapacity != 2 {
		t.Fatalf("cache entries=%d capacity=%d, want 2/2", st.CacheEntries, st.CacheCapacity)
	}
	// 20 and 30 are resident; 10 was evicted and must push again.
	if _, qi, err := svc.QueryTopK(20, 5); err != nil || !qi.Cached {
		t.Fatalf("resident source 20: err=%v cached=%v", err, qi.Cached)
	}
	if _, qi, err := svc.QueryTopK(10, 5); err != nil || qi.Cached {
		t.Fatalf("evicted source 10: err=%v cached=%v (want recompute)", err, qi.Cached)
	}
	if st := svc.Stats().OnDemand; st.CacheAnswerEntries != len10+len20 || st.CacheBytes != 12*(len10+len20) {
		t.Fatalf("after 10 displaced 30: %d sparse entries / %d B resident, want %d / %d",
			st.CacheAnswerEntries, st.CacheBytes, len10+len20, 12*(len10+len20))
	}

	// An effective write strands every cached answer (keys carry the
	// generation); the next answer must displace them all at once instead of
	// leaving them resident until capacity does.
	if _, err := svc.ApplyBatch(dynppr.Batch{{U: 1, V: 150, Op: dynppr.Insert}}); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	if _, qi, err := svc.QueryTopK(30, 5); err != nil || qi.Cached {
		t.Fatalf("post-write query: err=%v cached=%v (want recompute)", err, qi.Cached)
	}
	if st := svc.Stats().OnDemand; st.CacheEntries != 1 || st.CacheBytes != 12*st.CacheAnswerEntries ||
		st.CacheAnswerEntries <= 0 || st.CacheAnswerEntries >= len10+len20+len30 {
		t.Fatalf("after a write: entries=%d sparse=%d bytes=%d, want exactly the one new answer",
			st.CacheEntries, st.CacheAnswerEntries, st.CacheBytes)
	}

	// Negative disables: repeats recompute every time.
	so.OnDemand.ResultCache = -1
	svc2, err := dynppr.NewService(dynppr.GraphFromEdges(edges), g.TopDegreeVertices(1), so)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	defer svc2.Close()
	for i := 0; i < 3; i++ {
		if _, qi, err := svc2.QueryTopK(10, 5); err != nil || qi.Cached {
			t.Fatalf("uncached service iteration %d: err=%v cached=%v", i, err, qi.Cached)
		}
	}
	st2 := svc2.Stats().OnDemand
	if st2.ColdPushes != 3 || st2.CacheCapacity != 0 || st2.CacheHits != 0 {
		t.Fatalf("disabled cache: pushes=%d capacity=%d hits=%d, want 3/0/0",
			st2.ColdPushes, st2.CacheCapacity, st2.CacheHits)
	}
}

// TestOnDemandBudgetedQueries covers adaptive ε end to end: a spent budget
// degrades to exactly the deterministic coarse answer, a generous budget
// refines past the configured ε (still differential-checking against the
// power oracle within the advertised bound), and budgeted answers cache.
func TestOnDemandBudgetedQueries(t *testing.T) {
	const (
		odEps      = 1e-4
		trackedEps = 1e-6
	)
	edges := odTestEdges(t, 400, 3000, 21)
	newSvc := func() *dynppr.Service {
		g := dynppr.GraphFromEdges(edges)
		so := dynppr.DefaultServiceOptions()
		so.Options.Epsilon = trackedEps
		so.OnDemand = dynppr.OnDemandOptions{Enabled: true, Epsilon: odEps, Seed: 42}
		svc, err := dynppr.NewService(g, g.TopDegreeVertices(1), so)
		if err != nil {
			t.Fatalf("NewService: %v", err)
		}
		return svc
	}
	oracleFor := func(src dynppr.VertexID) []float64 {
		oracle, err := power.Reverse(dynppr.GraphFromEdges(edges).Snapshot(), src, power.Options{
			Alpha: dynppr.DefaultServiceOptions().Options.Alpha, Tolerance: 1e-12, MaxIterations: 10_000,
		})
		if err != nil {
			t.Fatalf("power.Reverse(%d): %v", src, err)
		}
		return oracle
	}

	svcA := newSvc()
	defer svcA.Close()
	svcB := newSvc()
	defer svcB.Close()
	ctx := context.Background()
	const src = dynppr.VertexID(57)

	// An already-spent budget emits exactly the unbudgeted coarse answer —
	// the first push level is never time-truncated — and reports Truncated.
	topUn, qiUn, err := svcA.QueryTopK(src, 10)
	if err != nil {
		t.Fatalf("unbudgeted QueryTopK: %v", err)
	}
	topSpent, qiSpent, err := svcB.QueryTopKOpts(ctx, src, 10, dynppr.QueryOptions{Budget: time.Nanosecond})
	if err != nil {
		t.Fatalf("spent-budget QueryTopK: %v", err)
	}
	if !qiSpent.Truncated {
		t.Fatal("1ns budget must report Truncated")
	}
	if math.Float64bits(qiSpent.Epsilon) != math.Float64bits(qiUn.Epsilon) {
		t.Fatalf("spent-budget epsilon %g != unbudgeted %g", qiSpent.Epsilon, qiUn.Epsilon)
	}
	for i := range topUn {
		if topUn[i] != topSpent[i] {
			t.Fatalf("spent-budget entry %d: %v vs unbudgeted %v", i, topSpent[i], topUn[i])
		}
	}

	// A generous budget descends the ε ladder toward the tracked ε and the
	// refined answer still sits within its (much tighter) advertised bound.
	const deep = dynppr.VertexID(191)
	topDeep, qiDeep, err := svcB.QueryTopKOpts(ctx, deep, 10, dynppr.QueryOptions{Budget: time.Minute})
	if err != nil {
		t.Fatalf("generous-budget QueryTopK: %v", err)
	}
	if qiDeep.Truncated {
		t.Fatal("generous budget must not be truncated")
	}
	if qiDeep.Epsilon >= odEps/10 {
		t.Fatalf("generous budget did not refine: epsilon %g", qiDeep.Epsilon)
	}
	oracle := oracleFor(deep)
	for _, vs := range topDeep {
		if d := math.Abs(vs.Score - oracle[vs.Vertex]); d > qiDeep.Epsilon+1e-12 {
			t.Fatalf("deep vertex %d: |%g - %g| = %g > advertised %g", vs.Vertex, vs.Score, oracle[vs.Vertex], d, qiDeep.Epsilon)
		}
	}
	// Budgeted repeats hit the cache with the identical answer.
	topDeep2, qiDeep2, err := svcB.QueryTopKOpts(ctx, deep, 10, dynppr.QueryOptions{Budget: time.Minute})
	if err != nil || !qiDeep2.Cached {
		t.Fatalf("budgeted repeat: err=%v cached=%v", err, qiDeep2.Cached)
	}
	for i := range topDeep {
		if topDeep[i] != topDeep2[i] {
			t.Fatalf("budgeted repeat entry %d differs", i)
		}
	}
	// An unbudgeted query must NOT consume the budgeted entry: it recomputes
	// the deterministic full-ε answer (and republishes it), after which both
	// budgeted and unbudgeted repeats are cache hits.
	if _, qi, err := svcB.QueryTopK(deep, 10); err != nil || qi.Cached {
		t.Fatalf("unbudgeted after budgeted: err=%v cached=%v (want recompute)", err, qi.Cached)
	}
	if _, qi, err := svcB.QueryTopK(deep, 10); err != nil || !qi.Cached {
		t.Fatalf("unbudgeted repeat: err=%v cached=%v", err, qi.Cached)
	}

	// A mid-sized budget lands on some ladder level nondeterministically —
	// whatever it achieved must differential-check within the advertised ε.
	const mid = dynppr.VertexID(333)
	est, qiMid, err := svcB.QueryEstimateOpts(ctx, mid, 0, dynppr.QueryOptions{Budget: 200 * time.Microsecond})
	if err != nil {
		t.Fatalf("mid-budget QueryEstimate: %v", err)
	}
	if qiMid.Epsilon <= 0 || qiMid.Epsilon > odEps {
		t.Fatalf("mid-budget epsilon %g outside (0, %g]", qiMid.Epsilon, odEps)
	}
	if d := math.Abs(est - oracleFor(mid)[0]); d > qiMid.Epsilon+1e-12 {
		t.Fatalf("mid-budget estimate off by %g > advertised %g", d, qiMid.Epsilon)
	}

	if st := svcB.Stats().OnDemand; st.BudgetTruncated == 0 {
		t.Fatal("BudgetTruncated counter did not advance")
	}
}

// TestTrackedReadsKeepAutoSourceWarm pins the recency bugfix: reads through
// the plain TopK/Estimate APIs (not just Query*) must refresh an
// auto-promoted source's last-use tick, or a source served heavily through
// them would be evicted while hot.
func TestTrackedReadsKeepAutoSourceWarm(t *testing.T) {
	edges := odTestEdges(t, 80, 400, 7)
	g := dynppr.GraphFromEdges(edges)
	so := dynppr.DefaultServiceOptions()
	so.OnDemand = dynppr.OnDemandOptions{
		Enabled: true, Epsilon: 1e-3, PromoteAfter: 2, MaxAutoSources: 2, Seed: 1,
	}
	svc, err := dynppr.NewService(g, g.TopDegreeVertices(1), so)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	defer svc.Close()

	tracked := func(v dynppr.VertexID) bool {
		for _, s := range svc.Sources() {
			if s == v {
				return true
			}
		}
		return false
	}
	promote := func(src dynppr.VertexID) {
		for i := 0; i < 2; i++ {
			if _, _, err := svc.QueryTopK(src, 5); err != nil {
				t.Fatalf("QueryTopK(%d): %v", src, err)
			}
		}
		if !tracked(src) {
			t.Fatalf("source %d not promoted", src)
		}
	}

	var a, b, c dynppr.VertexID = 11, 22, 33
	promote(a) // older tick
	promote(b) // newer tick

	// Heavy non-Query reads of a — all four tracked-read entry points.
	if _, err := svc.TopK(a, 3); err != nil {
		t.Fatalf("TopK(a): %v", err)
	}
	if _, err := svc.Estimate(a, 0); err != nil {
		t.Fatalf("Estimate(a): %v", err)
	}
	if _, _, err := svc.TopKInfo(a, 3); err != nil {
		t.Fatalf("TopKInfo(a): %v", err)
	}
	if _, _, err := svc.EstimateInfo(a, 0); err != nil {
		t.Fatalf("EstimateInfo(a): %v", err)
	}

	// Promoting c forces an eviction; the coldest source is now b, not a.
	promote(c)
	if !tracked(a) {
		t.Fatal("source a was evicted despite hot TopK/Estimate traffic (touch not on the shared read path)")
	}
	if tracked(b) {
		t.Fatal("source b survived eviction although a's reads were more recent")
	}
	if !tracked(c) {
		t.Fatal("source c lost its fresh promotion")
	}
}

// TestOnDemandCloseRace stresses Close racing in-flight cold queries:
// every call must return — an answer or ErrServiceClosed/ErrOverloaded —
// and never hang on the pool, the coalescer, or the snapshot handoff.
// Run under -race in CI.
func TestOnDemandCloseRace(t *testing.T) {
	edges := odTestEdges(t, 2000, 12_000, 9)
	g := dynppr.GraphFromEdges(edges)
	so := dynppr.DefaultServiceOptions()
	so.OnDemand = dynppr.OnDemandOptions{Enabled: true, Epsilon: 1e-5, Seed: 3, Workers: 2}
	svc, err := dynppr.NewService(g, g.TopDegreeVertices(1), so)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				src := dynppr.VertexID(rng.Intn(2000))
				_, _, err := svc.QueryTopK(src, 5)
				if err != nil {
					if !errors.Is(err, dynppr.ErrServiceClosed) && !errors.Is(err, dynppr.ErrOverloaded) {
						t.Errorf("reader: unexpected error %v", err)
					}
					return
				}
			}
		}(int64(r + 1))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := dynppr.VertexID(5000)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, err := svc.ApplyBatch(dynppr.Batch{{U: 1, V: next, Op: dynppr.Insert}})
			if err != nil {
				if !errors.Is(err, dynppr.ErrServiceClosed) {
					t.Errorf("writer: unexpected error %v", err)
				}
				return
			}
			next++
		}
	}()

	time.Sleep(25 * time.Millisecond)
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	close(stop)
	wg.Wait()

	// A fresh cold source after Close errors out instead of hanging in pool
	// admission.
	if _, _, err := svc.QueryTopK(dynppr.VertexID(1999), 5); err == nil {
		// The snapshot and cache can legitimately serve a pre-Close answer
		// (reads racing Close may succeed); force a pool trip with a source
		// that cannot be cached yet after the last mutation.
	} else if !errors.Is(err, dynppr.ErrServiceClosed) && !errors.Is(err, dynppr.ErrOverloaded) {
		t.Fatalf("post-close query: unexpected error %v", err)
	}
	// Close is idempotent.
	if err := svc.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
