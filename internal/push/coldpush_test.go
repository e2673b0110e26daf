package push

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"dynppr/internal/gen"
	"dynppr/internal/graph"
	"dynppr/internal/power"
	"dynppr/internal/stream"
)

// coldPushSnapshot builds a deliberately dangling-heavy ER snapshot: unlike
// the ring graphs the engine tests use, no overlay is added, so some vertices
// have no out-edges and some have no in-edges. ColdPushCSR must stay within
// its bound on exactly this shape — the local push never divides by a
// dangling out-degree, so no convention caveat applies.
func coldPushSnapshot(t *testing.T, vertices, edges int, seed int64) *graph.CSR {
	t.Helper()
	list, err := gen.EdgeList(gen.Config{Model: gen.ErdosRenyi, Vertices: vertices, Edges: edges, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return graph.FromEdges(list).Snapshot()
}

func TestColdPushCSRValidation(t *testing.T) {
	c := coldPushSnapshot(t, 20, 40, 1)
	if _, err := ColdPushCSR(c, 0, Config{Alpha: 0, Epsilon: 1}, 0); err == nil {
		t.Fatal("invalid config must fail")
	}
	for _, src := range []graph.VertexID{-1, graph.VertexID(c.NumVertices())} {
		if _, err := ColdPushCSR(c, src, Config{Alpha: 0.15, Epsilon: 1e-6}, 0); err == nil {
			t.Fatalf("out-of-range source %d must fail", src)
		}
	}
}

// TestColdPushCSRMatchesReverseOracle is the semantic contract: the one-shot
// push approximates the contribution vector π_·(s) — the quantity the live
// engines maintain — within its advertised per-vertex MaxResidual bound, for
// every vertex, on a graph with dangling vertices.
func TestColdPushCSRMatchesReverseOracle(t *testing.T) {
	c := coldPushSnapshot(t, 250, 1500, 7)
	oracleOpts := power.Options{Alpha: 0.15, Tolerance: 1e-13, MaxIterations: 20_000}
	for _, src := range []graph.VertexID{0, 13, 101, 249} {
		res, err := ColdPushCSR(c, src, Config{Alpha: 0.15, Epsilon: 1e-4}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Capped {
			t.Fatalf("source %d: unbounded push reported capped", src)
		}
		if res.MaxResidual > 1e-4 {
			t.Fatalf("source %d: max residual %g above epsilon", src, res.MaxResidual)
		}
		oracle, err := power.Reverse(c, src, oracleOpts)
		if err != nil {
			t.Fatal(err)
		}
		for v := range oracle {
			est := SparseValue(res.Vertices, res.Estimates, graph.VertexID(v))
			if d := math.Abs(est - oracle[v]); d > res.MaxResidual+1e-12 {
				t.Fatalf("source %d vertex %d: |%g - %g| = %g exceeds MaxResidual %g",
					src, v, est, oracle[v], d, res.MaxResidual)
			}
		}
	}
}

// TestColdPushCSRCapped checks that a push cap degrades the bound, not the
// soundness: the advertised MaxResidual grows to cover the unfinished work
// and every estimate still sits within it.
func TestColdPushCSRCapped(t *testing.T) {
	c := coldPushSnapshot(t, 250, 1500, 7)
	src := graph.VertexID(13)
	res, err := ColdPushCSR(c, src, Config{Alpha: 0.15, Epsilon: 1e-7}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Capped || res.Pushes != 3 {
		t.Fatalf("capped=%v pushes=%d, want capped after exactly 3", res.Capped, res.Pushes)
	}
	if res.MaxResidual <= 1e-7 {
		t.Fatalf("capped push must advertise a residual above epsilon, got %g", res.MaxResidual)
	}
	oracle, err := power.Reverse(c, src, power.Options{Alpha: 0.15, Tolerance: 1e-13, MaxIterations: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	for v := range oracle {
		est := SparseValue(res.Vertices, res.Estimates, graph.VertexID(v))
		if d := math.Abs(est - oracle[v]); d > res.MaxResidual+1e-12 {
			t.Fatalf("vertex %d: |%g - %g| = %g exceeds capped MaxResidual %g",
				v, est, oracle[v], d, res.MaxResidual)
		}
	}
}

// adjacency is the neighbor-access surface *graph.View and *graph.Graph
// share.
type adjacency interface {
	NumVertices() int
	OutDegree(u graph.VertexID) int
	InNeighbors(v graph.VertexID) []graph.VertexID
}

// densePush is the oracle the sparse kernel is pinned to: the textbook FIFO
// push over dense length-n arrays with a membership bitmap, draining the
// frontier at threshold eps. It stops with capped=true the moment maxPushes
// (> 0) is reached.
func densePush(a adjacency, source graph.VertexID, alpha, eps float64, maxPushes int64) (p, r []float64, pushes int64, capped bool) {
	n := a.NumVertices()
	p, r = make([]float64, n), make([]float64, n)
	inQueue := make([]bool, n)
	r[source], inQueue[source] = 1, true
	queue := []graph.VertexID{source}
	for len(queue) > 0 {
		if maxPushes > 0 && pushes >= maxPushes {
			return p, r, pushes, true
		}
		u := queue[0]
		queue = queue[1:]
		inQueue[u] = false
		ru := r[u]
		if ru <= eps {
			continue
		}
		pushes++
		p[u] += float64(alpha * ru)
		r[u] = 0
		for _, v := range a.InNeighbors(u) {
			r[v] += (1 - alpha) * ru / float64(a.OutDegree(v))
			if r[v] > eps && !inQueue[v] {
				inQueue[v] = true
				queue = append(queue, v)
			}
		}
	}
	return p, r, pushes, false
}

// requireMatchesDense holds a sparse result against the dense oracle's
// arrays, bit for bit: every estimate (listed or not), MaxResidual, Pushes
// and Capped — and the sparse shape itself.
func requireMatchesDense(t *testing.T, what string, got *ColdPushResult, p, r []float64, pushes int64, capped bool) {
	t.Helper()
	if got.Pushes != pushes || got.Capped != capped {
		t.Fatalf("%s: pushes=%d capped=%v, dense oracle %d/%v", what, got.Pushes, got.Capped, pushes, capped)
	}
	if want := slices.Max(r); math.Float64bits(got.MaxResidual) != math.Float64bits(want) {
		t.Fatalf("%s: MaxResidual %g, dense oracle %g", what, got.MaxResidual, want)
	}
	if !slices.IsSorted(got.Vertices) || len(slices.Compact(slices.Clone(got.Vertices))) != len(got.Vertices) ||
		len(got.Estimates) != len(got.Vertices) {
		t.Fatalf("%s: vertex list not strictly ascending and parallel", what)
	}
	for v := range p {
		if e := SparseValue(got.Vertices, got.Estimates, graph.VertexID(v)); math.Float64bits(e) != math.Float64bits(p[v]) {
			t.Fatalf("%s: vertex %d estimate %g, dense oracle %g (bit mismatch)", what, v, e, p[v])
		}
	}
	for i, e := range got.Estimates {
		if e == 0 {
			t.Fatalf("%s: zero estimate listed for vertex %d", what, got.Vertices[i])
		}
	}
}

// TestColdPushMatchesDenseReference pins the one kernel to the dense oracle
// on both shapes a pinned view takes — a bare compacted base, and base plus
// overlays after a delete-heavy batch — run to ε and under a push cap.
// Iteration order is the whole contract: the LSM store preserves adjacency
// order across overlays, so the FIFO visits neighbors identically and every
// float64 sum associates identically.
func TestColdPushMatchesDenseReference(t *testing.T) {
	list, err := gen.EdgeList(gen.Config{Model: gen.ErdosRenyi, Vertices: 300, Edges: 1800, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromEdges(list)
	compacted := g.View()
	if compacted.DeltaEdges() != 0 {
		t.Fatal("fresh graph must have no overlays")
	}
	// A delete-heavy batch: a third of the vertices lose every other
	// out-edge, one loses all of them, a few gain one, and a vertex beyond
	// the base appears.
	for u := graph.VertexID(0); u < 100; u++ {
		for i, v := range slices.Clone(g.OutNeighbors(u)) {
			if i%2 == 0 || u == 5 {
				if err := g.RemoveEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for v := graph.VertexID(0); v < 40; v += 4 {
		if _, err := g.AddEdge(v, v+7); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.AddEdge(300, 3); err != nil {
		t.Fatal(err)
	}
	overlaid := g.View()
	if overlaid.DeltaEdges() == 0 {
		t.Fatal("the batch must leave overlays")
	}

	cfg := Config{Alpha: 0.15, Epsilon: 1e-4}
	for name, view := range map[string]*graph.View{"compacted": compacted, "overlaid": overlaid} {
		for _, src := range []graph.VertexID{0, 5, 77} {
			got, err := ColdPushBounded(view, src, cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			p, r, pushes, _ := densePush(view, src, cfg.Alpha, cfg.Epsilon, 0)
			requireMatchesDense(t, name+" to ε", got, p, r, pushes, false)
			if pushes < 4 {
				t.Fatalf("%s source %d: degenerate push (%d pushes)", name, src, pushes)
			}
			// Capped: the partial drain is the answer.
			got, err = ColdPushBounded(view, src, cfg, 3)
			if err != nil {
				t.Fatal(err)
			}
			p, r, pushes, capped := densePush(view, src, cfg.Alpha, cfg.Epsilon, 3)
			requireMatchesDense(t, name+" capped", got, p, r, pushes, capped)
			if !got.Capped {
				t.Fatalf("%s source %d: 3-push cap did not cap", name, src)
			}
		}
	}
}

// TestColdScratchHygiene: a scratch carries nothing from one query into the
// next — not across sources, not after a capped push, not across graph
// growth — and is all-zero whenever it is idle.
func TestColdScratchHygiene(t *testing.T) {
	small := coldPushSnapshot(t, 250, 1500, 7).View()
	big := coldPushSnapshot(t, 600, 4000, 9).View()
	cfg := Config{Alpha: 0.15, Epsilon: 1e-4}
	var sc coldScratch
	requireIdle := func(what string) {
		t.Helper()
		if len(sc.queue) != 0 || sc.head != 0 {
			t.Fatalf("%s: queue not reset: queue=%d head=%d", what, len(sc.queue), sc.head)
		}
		// Has on every cell also checks that the touched set covers them.
		for v, c := range sc.cells {
			if c != (coldCell{}) || sc.touched.Has(graph.VertexID(v)) {
				t.Fatalf("%s: cell %d left dirty: %+v, touched %t", what, v, c, sc.touched.Has(graph.VertexID(v)))
			}
		}
		if sc.touched.Len() != 0 {
			t.Fatalf("%s: touched set holds %d members", what, sc.touched.Len())
		}
	}
	fresh := func(view *graph.View, src graph.VertexID) *ColdPushResult {
		return new(coldScratch).push(view, src, cfg, 0)
	}
	a1 := sc.push(small, 13, cfg, 0)
	requireIdle("after A")
	requireSamePush(t, "B after A", sc.push(small, 101, cfg, 0), fresh(small, 101))
	requireIdle("after B")
	requireSamePush(t, "A again", sc.push(small, 13, cfg, 0), a1)

	if capped := sc.push(small, 13, Config{Alpha: 0.15, Epsilon: 1e-7}, 5); !capped.Capped {
		t.Fatal("5-push cap did not cap")
	}
	requireIdle("after a capped push")
	requireSamePush(t, "A after a capped push", sc.push(small, 13, cfg, 0), a1)

	// Growth: the bigger graph resizes the scratch; going back is unaffected.
	if len(sc.cells) >= big.NumVertices() {
		t.Fatalf("scratch already holds %d cells", len(sc.cells))
	}
	requireSamePush(t, "after growth", sc.push(big, 599, cfg, 0), fresh(big, 599))
	if len(sc.cells) < big.NumVertices() {
		t.Fatalf("scratch did not grow: %d cells for %d vertices", len(sc.cells), big.NumVertices())
	}
	requireIdle("after growth") // the touched set grew with the cells
	requireSamePush(t, "A after growth", sc.push(small, 13, cfg, 0), a1)
}

// TestColdPushConcurrent runs many workers over one pinned view at once
// (pooled scratches, shared read-only graph); every answer must equal the
// serial one. Meaningful under -race.
func TestColdPushConcurrent(t *testing.T) {
	view := coldPushSnapshot(t, 400, 3000, 5).View()
	cfg := Config{Alpha: 0.15, Epsilon: 1e-5}
	want := make([]*ColdPushResult, 32)
	for i := range want {
		var err error
		if want[i], err = ColdPushBounded(view, graph.VertexID(i*12), cfg, 0); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for i := range want {
					got, err := ColdPushBounded(view, graph.VertexID(i*12), cfg, 0)
					if err != nil {
						t.Error(err)
						return
					}
					if got.Pushes != want[i].Pushes || !slices.Equal(got.Vertices, want[i].Vertices) ||
						!slices.Equal(got.Estimates, want[i].Estimates) {
						t.Errorf("worker %d source %d: concurrent answer differs from the serial one", w, i*12)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestColdPushAllocatesWhatItTouches is the locality contract in bytes: once
// a scratch is warm, a cold push allocates its sparse answer and nothing
// that scales with the graph — the same bound holds on a 100k- and (outside
// -short) a 1M-vertex R-MAT of the same average degree.
func TestColdPushAllocatesWhatItTouches(t *testing.T) {
	sizes := []int{100_000, 1_000_000}
	if testing.Short() {
		sizes = sizes[:1]
	}
	cfg := Config{Alpha: 0.15, Epsilon: 5e-4}
	for _, n := range sizes {
		list, err := gen.EdgeList(gen.Config{Model: gen.RMAT, Vertices: n, Edges: 4 * n, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		view := graph.FromEdges(list).View()
		var sources []graph.VertexID
		for v := graph.VertexID(n / 2); len(sources) < 64; v += 37 {
			if len(view.InNeighbors(v)) > 0 {
				sources = append(sources, v)
			}
		}
		var sc coldScratch
		var carried, pushes int64
		for _, s := range sources { // warm the scratch's lists
			res := sc.push(view, s, cfg, 0)
			carried += int64(len(res.Vertices))
			pushes += res.Pushes
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, s := range sources {
			sc.push(view, s, cfg, 0)
		}
		runtime.ReadMemStats(&after)
		got := int64(after.TotalAlloc - before.TotalAlloc)
		// 12 B per carried entry, rounded up by the allocator's size classes,
		// plus the result struct and slice headers.
		if limit := 16*carried + 512*int64(len(sources)); got > limit {
			t.Fatalf("n=%d: %d pushes carrying %d entries allocated %d B, want <= %d (a dense array is %d B per push)",
				n, len(sources), carried, got, limit, 16*n)
		}
		t.Logf("n=%d: %.0f B/push for %.0f entries and %.0f pushes per push", n,
			float64(got)/float64(len(sources)), float64(carried)/float64(len(sources)), float64(pushes)/float64(len(sources)))
	}
}

// BenchmarkColdPushLedgerShape times the cold kernel on the graph and the
// sources of the ledger's cold-longtail workload: the R-MAT graph of 100 000
// vertices and 1 000 000 edges with seed 2, the first 80 % of its seed-2
// arrival order as a bare base, and the first 200 vertices with in-degree
// >= 1 in the ledger's cold-pool order (which also skips the ledger's tracked
// sources), each pushed from a cold start at the on-demand ε of 1e-4 through
// the pooled scratch. One op is the 200 pushes; ns/push is the time per
// vertex push.
func BenchmarkColdPushLedgerShape(b *testing.B) {
	const n, seed = 100_000, 2
	list, err := gen.EdgeList(gen.Config{Model: gen.RMAT, Vertices: n, Edges: 1_000_000, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	_, initial := stream.NewSlidingWindow(stream.NewStream(list, seed), 0.8)
	view := graph.FromEdges(initial).View()
	var sources []graph.VertexID
	for _, c := range rand.New(rand.NewSource(seed ^ 0x636f6c64)).Perm(n) {
		if v := graph.VertexID(c); c < view.NumVertices() && len(view.InNeighbors(v)) >= 1 {
			if sources = append(sources, v); len(sources) == 200 {
				break
			}
		}
	}
	cfg := Config{Alpha: 0.15, Epsilon: 1e-4}
	var pushes int64
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, s := range sources {
			res, err := ColdPushBounded(view, s, cfg, 0)
			if err != nil {
				b.Fatal(err)
			}
			pushes += res.Pushes
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pushes), "ns/push")
	b.ReportMetric(float64(pushes)/float64(b.N), "pushes/op")
}

func requireSamePush(t *testing.T, what string, got, want *ColdPushResult) {
	t.Helper()
	if got.Pushes != want.Pushes || got.Capped != want.Capped ||
		math.Float64bits(got.MaxResidual) != math.Float64bits(want.MaxResidual) {
		t.Fatalf("%s: metadata diverged: %+v vs %+v", what, got, want)
	}
	if !slices.Equal(got.Vertices, want.Vertices) || len(got.Estimates) != len(got.Vertices) {
		t.Fatalf("%s: vertex lists differ: %d vs %d entries", what, len(got.Vertices), len(want.Vertices))
	}
	for i, v := range got.Vertices {
		if math.Float64bits(got.Estimates[i]) != math.Float64bits(want.Estimates[i]) {
			t.Fatalf("%s: vertex %d: %g vs %g (bit mismatch)", what, v, got.Estimates[i], want.Estimates[i])
		}
	}
}

// TestColdPushCSRAgreesWithLiveColdStart pins the cross-implementation
// agreement to the bit: the one-shot cold kernel and a live tracker state
// cold-started by the Sequential engine run the same FIFO push, so on every
// (graph, source) of the table they perform the same pushes, leave the same
// max residual and publish the same estimate bits — every vertex the cold
// answer omits holds exactly 0 in the live state.
func TestColdPushCSRAgreesWithLiveColdStart(t *testing.T) {
	for _, tc := range []struct {
		cfg gen.Config
		eps float64
	}{
		{gen.Config{Model: gen.ErdosRenyi, Vertices: 200, Edges: 1200, Seed: 3}, 1e-6},
		{gen.Config{Model: gen.RMAT, Vertices: 5000, Edges: 60000, Seed: 4}, 1e-5},
		{gen.Config{Model: gen.RMAT, Vertices: 20000, Edges: 200000, Seed: 5}, 1e-4},
		{gen.Config{Model: gen.BarabasiAlbert, Vertices: 3000, Edges: 30000, Seed: 6}, 1e-5},
	} {
		list, err := gen.EdgeList(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := graph.FromEdges(list)
		cfg := Config{Alpha: 0.15, Epsilon: tc.eps}
		for _, src := range g.TopDegreeVertices(5) {
			what := fmt.Sprintf("%v %d/%d source %d", tc.cfg.Model, tc.cfg.Vertices, tc.cfg.Edges, src)
			st, err := NewState(g, src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			NewSequential().Run(st, []graph.VertexID{src})
			res, err := ColdPushCSR(g.Snapshot(), src, cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Pushes != st.Counters.Pushes || math.Float64bits(res.MaxResidual) != math.Float64bits(st.MaxResidual()) {
				t.Fatalf("%s: cold kernel %d pushes, max residual %g; live state %d, %g",
					what, res.Pushes, res.MaxResidual, st.Counters.Pushes, st.MaxResidual())
			}
			for v := 0; v < g.NumVertices(); v++ {
				cold, live := SparseValue(res.Vertices, res.Estimates, graph.VertexID(v)), st.Estimate(graph.VertexID(v))
				if math.Float64bits(cold) != math.Float64bits(live) {
					t.Fatalf("%s: vertex %d: cold kernel %g, live state %g (bit mismatch)", what, v, cold, live)
				}
			}
		}
	}
}
