package push_test

// The engine table: one check of the push contract for every push.Engine in
// the repository. The paper's pushes (Algorithms 2–4) all keep one
// invariant, Equation 2, so one property covers them all: the sequential
// push, the parallel push in each Figure 4 variant at one and four workers,
// the sort-aggregate alternative, the deterministic engine at 1, 2 and 8
// workers and the vertex-centric baseline each run their own state over one
// shared graph, through a Tracker's own batch procedure: push.Restore, each
// engine's Run, and a compaction after every second batch. After every
// batch every state must be converged, keep Equation 2 to 1e-9, lie within ε
// of power iteration on the current graph, and stay put when its engine runs
// again (the Run contract: no push, no bit changed). The deterministic
// engine must carry the same bits at every worker count, and the sequential
// engine's work counters are pinned. TestEngines runs the table over ER, BA
// and R-MAT graphs under mixed-random, delete-heavy, sliding-window and
// per-update streams, and over the workloads of the Tracker differentials
// it replaced; FuzzEngines feeds it arbitrary update sequences. The other
// tests here feed it further workloads: static graphs, a stream deleting
// from the graph as it stands, random small graphs and a large insert batch.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dynppr/internal/gen"
	"dynppr/internal/graph"
	"dynppr/internal/metrics"
	"dynppr/internal/parallel"
	"dynppr/internal/power"
	"dynppr/internal/push"
	"dynppr/internal/stream"
	"dynppr/internal/vc"
)

const tableEpsilon = 1e-5

// tableEngines returns a fresh instance of every engine, the sequential
// push first.
func tableEngines() []push.Engine {
	engines := []push.Engine{push.NewSequential()}
	// The multi-worker engines fan every round out (cutover 1): the table's
	// frontiers are mostly below the default cutover, which would run them
	// on one worker.
	for _, v := range []push.Variant{push.VariantVanilla, push.VariantEager, push.VariantDupDetect, push.VariantOpt} {
		engines = append(engines, push.NewParallel(v, 1), push.NewParallelCutover(v, 4, 1))
	}
	return append(engines,
		push.NewSortAggregateCutover(4, 1),
		parallel.NewPushEngine(1),
		parallel.NewPushEngineCutover(2, 1),
		parallel.NewPushEngineCutover(8, 1),
		vc.NewPPREngineCutover(4, 1),
	)
}

// engineTable is one state per table engine over one shared graph.
type engineTable struct {
	g       *graph.Graph
	source  graph.VertexID
	engines []push.Engine
	states  []*push.State
	touched []graph.VertexID
	batches int
}

// newEngineTable cold-starts every table engine for source on g and checks
// the result.
func newEngineTable(tb testing.TB, g *graph.Graph, source graph.VertexID) *engineTable {
	tb.Helper()
	t := &engineTable{g: g, source: source, engines: tableEngines()}
	for _, e := range t.engines {
		st, err := push.NewState(g, source, push.Config{Alpha: 0.15, Epsilon: tableEpsilon})
		if err != nil {
			tb.Fatal(err)
		}
		e.Run(st, []graph.VertexID{source})
		t.states = append(t.states, st)
	}
	t.check(tb, "cold start")
	return t
}

// apply is a Tracker's batch procedure: push.Restore applies b and restores
// every state's invariant, each engine runs on its state from the effective
// updates' source endpoints, and the graph compacts after every second
// batch (MaybeCompact would never fire on graphs this small).
func (t *engineTable) apply(b stream.Batch) {
	t.touched = push.Restore(t.g, t.states, b, t.touched[:0])
	if len(t.touched) > 0 {
		for i, e := range t.engines {
			e.Run(t.states[i], t.touched)
		}
	}
	if t.batches++; t.batches%2 == 0 {
		t.g.Compact()
	}
}

// check asserts the push contract on every state, including that a further
// full-scan Run of its engine changes nothing, and that the deterministic
// engine's states carry the bits of its single-worker one.
func (t *engineTable) check(tb testing.TB, tag string) {
	tb.Helper()
	if err := t.g.CheckConsistency(); err != nil {
		tb.Fatalf("%s: %v", tag, err)
	}
	oracle, err := power.ReverseGraph(t.g, t.source, power.Options{Alpha: 0.15, Tolerance: 1e-13, MaxIterations: 20_000})
	if err != nil {
		tb.Fatal(err)
	}
	var det *push.State
	for i, st := range t.states {
		name := t.engines[i].Name()
		if !st.Converged() {
			tb.Fatalf("%s: %s not converged: max residual %g", tag, name, st.MaxResidual())
		}
		if e := st.InvariantError(); e > 1e-9 {
			tb.Fatalf("%s: %s violates Equation 2 by %g", tag, name, e)
		}
		if worst := power.MaxAbsDiff(st.Estimates(), oracle); worst > tableEpsilon {
			tb.Fatalf("%s: %s is off the oracle by %g, ε %g", tag, name, worst, tableEpsilon)
		}
		p, r, work := st.Estimates(), st.Residuals(), st.Counters.Snapshot()
		t.engines[i].Run(st, nil)
		if !bitsEqual(st.Estimates(), p) || !bitsEqual(st.Residuals(), r) || st.Counters.Snapshot() != work {
			tb.Fatalf("%s: %s ran again on its converged state and changed it", tag, name)
		}
		if _, ok := t.engines[i].(*parallel.PushEngine); !ok {
			continue
		}
		if det == nil {
			det = st
		} else if !bitsEqual(st.Estimates(), det.Estimates()) || !bitsEqual(st.Residuals(), det.Residuals()) {
			tb.Fatalf("%s: %s differs in bits from the single-worker run", tag, name)
		}
	}
}

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// mixedStream draws batches of size updates: one in three deletes an edge
// present so far (or already deleted, a no-op), the rest insert a universe
// edge (possibly a duplicate).
func mixedStream(universe, present []graph.Edge, seed int64, batches, size int) []stream.Batch {
	rng := rand.New(rand.NewSource(seed))
	present = slices.Clone(present)
	out := make([]stream.Batch, batches)
	for b := range out {
		for range size {
			if len(present) > 0 && rng.Intn(3) == 0 {
				e := present[rng.Intn(len(present))]
				out[b] = append(out[b], stream.Update{U: e.U, V: e.V, Op: stream.Delete})
			} else {
				e := universe[rng.Intn(len(universe))]
				out[b] = append(out[b], stream.Update{U: e.U, V: e.V, Op: stream.Insert})
				present = append(present, e)
			}
		}
	}
	return out
}

// deleteHeavyStream tears the graph down: three updates in four delete a
// present edge, the rest insert a universe edge.
func deleteHeavyStream(universe []graph.Edge, seed int64, batches, size int) []stream.Batch {
	rng := rand.New(rand.NewSource(seed))
	present := slices.Clone(universe)
	out := make([]stream.Batch, batches)
	for b := range out {
		for range size {
			if len(present) > 0 && rng.Intn(4) != 0 {
				j := rng.Intn(len(present))
				e := present[j]
				present = slices.Delete(present, j, j+1)
				out[b] = append(out[b], stream.Update{U: e.U, V: e.V, Op: stream.Delete})
			} else {
				e := universe[rng.Intn(len(universe))]
				out[b] = append(out[b], stream.Update{U: e.U, V: e.V, Op: stream.Insert})
				present = append(present, e)
			}
		}
	}
	return out
}

// slides drains window in slides of size updates.
func slides(window *stream.SlidingWindow, size int) []stream.Batch {
	var out []stream.Batch
	for b := window.Slide(size); len(b) > 0; b = window.Slide(size) {
		out = append(out, b)
	}
	return out
}

// tableStreams are the table's workloads: each builds the initial graph's
// edges and the batches from a universe of edges.
var tableStreams = []struct {
	name  string
	build func(universe []graph.Edge, seed int64) ([]graph.Edge, []stream.Batch)
}{
	{"mixed-random", func(universe []graph.Edge, seed int64) ([]graph.Edge, []stream.Batch) {
		initial := universe[:len(universe)*4/7]
		return initial, mixedStream(universe, initial, seed, 3, 60)
	}},
	{"delete-heavy", func(universe []graph.Edge, seed int64) ([]graph.Edge, []stream.Batch) {
		return universe, deleteHeavyStream(universe, seed, 3, 160)
	}},
	// The paper's workload with a window under a third of the stream, so
	// the whole edge set turns over: each slide inserts and deletes a fifth
	// of it.
	{"sliding-window", func(universe []graph.Edge, seed int64) ([]graph.Edge, []stream.Batch) {
		window, initial := stream.NewSlidingWindow(stream.NewStream(universe, seed), 0.3)
		return initial, slides(window, len(universe)/5)
	}},
	// Restore and push after every single update: the prior state of the
	// art the paper's batches replace.
	{"per-update", func(universe []graph.Edge, seed int64) ([]graph.Edge, []stream.Batch) {
		initial := universe[:len(universe)*4/7]
		var out []stream.Batch
		for _, u := range mixedStream(universe, initial, seed, 1, 12)[0] {
			out = append(out, stream.Batch{u})
		}
		return initial, out
	}},
}

var tableGraphs = []gen.Config{
	{Name: "erdos-renyi", Model: gen.ErdosRenyi, Vertices: 80, Edges: 480, Seed: 17},
	{Name: "barabasi-albert", Model: gen.BarabasiAlbert, Vertices: 80, Edges: 480, Seed: 23},
	{Name: "rmat", Model: gen.RMAT, Vertices: 80, Edges: 600, Seed: 31},
}

// sequentialWork pins the sequential engine's work over each table case,
// cold start included: pushes, propagations, enqueues and invariant
// restores. Every push counts as one iteration over a frontier of one and
// every propagation as one random access, which the kernel's once-per-phase
// counter flush must keep field for field.
var sequentialWork = map[string][4]int64{
	"erdos-renyi/mixed-random":       {11316, 38225, 11253, 100},
	"erdos-renyi/delete-heavy":       {10094, 40873, 9963, 389},
	"erdos-renyi/sliding-window":     {4783, 8369, 4657, 658},
	"erdos-renyi/per-update":         {7534, 25766, 7526, 7},
	"barabasi-albert/mixed-random":   {6953, 29420, 6893, 108},
	"barabasi-albert/delete-heavy":   {6807, 30862, 6701, 330},
	"barabasi-albert/sliding-window": {5272, 11067, 5137, 568},
	"barabasi-albert/per-update":     {1597, 7972, 1589, 7},
	"rmat/mixed-random":              {6211, 28962, 6171, 92},
	"rmat/delete-heavy":              {6380, 30062, 6268, 323},
	"rmat/sliding-window":            {5852, 15848, 5709, 676},
	"rmat/per-update":                {4809, 23192, 4803, 5},
	"differential/erdos-renyi":       {15252, 52703, 15182, 121},
	"differential/barabasi-albert":   {1536, 7219, 1484, 114},
	"differential/rmat":              {11340, 48167, 11286, 106},
	"teardown":                       {19384, 96483, 19205, 355},
	"narrow-window":                  {11594, 18797, 11053, 1450},
	"from-empty":                     {69, 63, 47, 123},
}

// topInDegree returns the vertex with the most in-neighbors (the lowest id
// on a tie): a push from it reaches the most of the graph.
func topInDegree(g *graph.Graph) graph.VertexID {
	var best graph.VertexID
	for v := range graph.VertexID(g.NumVertices()) {
		if len(g.InNeighbors(v)) > len(g.InNeighbors(best)) {
			best = v
		}
	}
	return best
}

// tableCase is one workload of TestEngines.
type tableCase struct {
	name    string
	initial []graph.Edge
	source  graph.VertexID
	batches []stream.Batch
}

// edgeList generates a seeded edge list or fails tb.
func edgeList(tb testing.TB, model gen.Model, vertices, edges int, seed int64) []graph.Edge {
	tb.Helper()
	universe, err := gen.EdgeList(gen.Config{Model: model, Vertices: vertices, Edges: edges, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	return universe
}

// tableCases returns every TestEngines workload: each table stream over
// each table graph, then the workloads of the Tracker differentials the
// table replaced, each with its own graph, seed, stream and batch size and
// with the source of highest out-degree.
func tableCases(tb testing.TB) []tableCase {
	tb.Helper()
	var cases []tableCase
	for _, gc := range tableGraphs {
		universe := edgeList(tb, gc.Model, gc.Vertices, gc.Edges, gc.Seed)
		for _, sc := range tableStreams {
			initial, batches := sc.build(universe, gc.Seed+1000)
			cases = append(cases, tableCase{gc.Name + "/" + sc.name, initial, topInDegree(graph.FromEdges(initial)), batches})
		}
	}
	add := func(name string, initial []graph.Edge, batches []stream.Batch) {
		cases = append(cases, tableCase{name, initial, graph.FromEdges(initial).TopDegreeVertices(1)[0], batches})
	}
	// Mixed streams whose deletes hit only edges the stream inserted, four
	// batches of 60 over the first 400 edges of a 120-vertex graph.
	for _, gc := range tableGraphs {
		universe := edgeList(tb, gc.Model, 120, 700, gc.Seed)
		add("differential/"+gc.Name, universe[:400], mixedStream(universe, nil, gc.Seed+1000, 4, 60))
	}
	// Six batches of 80, three deletes in four, tear a BA graph down.
	full := edgeList(tb, gen.BarabasiAlbert, 120, 700, 53)
	teardown := deleteHeavyStream(full, 54, 6, 80)
	g := graph.FromEdges(full)
	for _, b := range teardown {
		b.Apply(g)
	}
	if g.NumEdges() >= len(full)/2 {
		tb.Fatalf("stream was not delete-heavy: %d of %d edges remain", g.NumEdges(), len(full))
	}
	add("teardown", full, teardown)
	// A 10% window slides across a 900-edge R-MAT stream 45 edges at a
	// time: the window is far smaller than the graph it slides across.
	universe := edgeList(tb, gen.RMAT, 120, 900, 61)
	window, initial := stream.NewSlidingWindow(stream.NewStream(universe, 62), 0.1)
	narrow := slides(window, 45)
	if window.Size() >= len(universe)/2 || len(narrow) < 10 {
		tb.Fatalf("window %d over %d edges in %d slides: not a narrow window", window.Size(), len(universe), len(narrow))
	}
	add("narrow-window", initial, narrow)
	// Three mixed batches of 50 grow an R-MAT graph from nothing.
	universe = edgeList(tb, gen.RMAT, 100, 500, 41)
	return append(cases, tableCase{"from-empty", nil, 0, mixedStream(universe, nil, 77, 3, 50)})
}

// TestEngines runs the engine table over every table case.
func TestEngines(t *testing.T) {
	for _, c := range tableCases(t) {
		t.Run(c.name, func(t *testing.T) {
			tab := newEngineTable(t, graph.FromEdges(c.initial), c.source)
			for i, b := range c.batches {
				tab.apply(b)
				tab.check(t, fmt.Sprintf("batch %d", i))
			}
			w := sequentialWork[c.name]
			want := metrics.Counters{
				Pushes: w[0], Propagations: w[1], Enqueues: w[2], RestoreOps: w[3],
				Iterations: w[0], FrontierTotal: w[0], FrontierPeak: 1,
			}
			if got := tab.states[0].Counters.Snapshot(); got != want {
				t.Errorf("sequential counters = %+v\nwant                  %+v", got, want)
			}
		})
	}
}

// insertBatch inserts edges as one batch.
func insertBatch(edges []graph.Edge) stream.Batch {
	b := make(stream.Batch, 0, len(edges))
	for _, e := range edges {
		b = append(b, stream.Update{U: e.U, V: e.V, Op: stream.Insert})
	}
	return b
}

// TestAllEnginesApproximateOracle is Theorem 2 on static graphs: every table
// engine's cold start is an ε-approximation of the exact vector, and a
// further Run on it changes nothing. The graphs are an R-MAT graph, the
// paper's running example of Figures 1 and 3 (v1..v4 renumbered 0..3) and
// a three-vertex graph.
func TestAllEnginesApproximateOracle(t *testing.T) {
	g, err := gen.Generate(gen.Config{Model: gen.RMAT, Vertices: 300, Edges: 2500, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	newEngineTable(t, g, g.TopDegreeVertices(1)[0])
	newEngineTable(t, graph.FromEdges([]graph.Edge{{U: 0, V: 3}, {U: 1, V: 0}, {U: 2, V: 0}, {U: 2, V: 1}, {U: 3, V: 2}}), 0)
	newEngineTable(t, graph.FromEdges([]graph.Edge{{U: 1, V: 0}, {U: 2, V: 0}, {U: 2, V: 1}}), 0)
}

// TestDynamicMaintenanceTracksOracle runs five batches of forty updates, one
// in four deleting a random edge of the graph as it stands and the rest
// inserting the next edge of a BA edge list, through the table.
func TestDynamicMaintenanceTracksOracle(t *testing.T) {
	base, err := gen.EdgeList(gen.Config{Model: gen.BarabasiAlbert, Vertices: 150, Edges: 900, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromEdges(base[:600])
	tab := newEngineTable(t, g, g.TopDegreeVertices(1)[0])
	rng := rand.New(rand.NewSource(99))
	next := 600
	for b := range 5 {
		// Draw the batch on a copy, so a delete sees the batch's own
		// earlier updates.
		sim := g.Clone()
		var batch stream.Batch
		for i := 0; i < 40 && next < len(base); i++ {
			if rng.Intn(4) == 0 {
				edges := sim.Edges()
				if len(edges) == 0 {
					continue
				}
				e := edges[rng.Intn(len(edges))]
				sim.RemoveEdge(e.U, e.V)
				batch = append(batch, stream.Update{U: e.U, V: e.V, Op: stream.Delete})
			} else {
				e := base[next]
				next++
				sim.AddEdge(e.U, e.V)
				batch = append(batch, stream.Update{U: e.U, V: e.V, Op: stream.Insert})
			}
		}
		tab.apply(batch)
		tab.check(t, fmt.Sprintf("batch %d", b))
	}
}

// TestEnginesQuickProperty: for random small ER graphs and a random insert
// batch, every table engine keeps the push contract.
func TestEnginesQuickProperty(t *testing.T) {
	f := func(seed int64) bool {
		edges, err := gen.EdgeList(gen.Config{Model: gen.ErdosRenyi, Vertices: 40, Edges: 200, Seed: seed})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		tab := newEngineTable(t, graph.FromEdges(edges[:150]), 0)
		tab.apply(insertBatch(edges[150:]))
		tab.check(t, fmt.Sprintf("seed %d", seed))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestSortAggregateApproximatesOracle is Theorem 2 for the sort-aggregate
// method under contention, from a cold start and across a 700-insert batch,
// with every table engine beside it; the method uses no atomic operation.
func TestSortAggregateApproximatesOracle(t *testing.T) {
	edges, err := gen.EdgeList(gen.Config{Model: gen.RMAT, Vertices: 250, Edges: 2500, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromEdges(edges[:1800])
	tab := newEngineTable(t, g, g.TopDegreeVertices(1)[0])
	tab.apply(insertBatch(edges[1800:]))
	tab.check(t, "inserts")
	for i, e := range tab.engines {
		if _, ok := e.(*push.SortAggregate); ok {
			if n := tab.states[i].Counters.AtomicAdds; n != 0 {
				t.Fatalf("sort-aggregate must not use atomic adds, counted %d", n)
			}
		}
	}
}

// FuzzEngines feeds arbitrary update sequences — duplicate inserts, deletes
// of missing edges, self-loops, reinsertion after deletion, growth from an
// empty graph — through the engine table, eight updates per batch, checking
// the table after every batch. Three bytes make an update: endpoints modulo
// 24 and the low bit of the third byte as the operation.
func FuzzEngines(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 0})                                // single insert
	f.Add([]byte{1, 2, 0, 1, 2, 0})                       // duplicate insert
	f.Add([]byte{5, 5, 0, 5, 5, 1})                       // self-loop insert then delete
	f.Add([]byte{9, 4, 1})                                // delete of a missing edge
	f.Add([]byte{1, 2, 0, 1, 2, 1, 1, 2, 0, 1, 2, 1})     // insert/delete churn
	f.Add([]byte{0, 1, 0, 1, 2, 0, 2, 0, 0, 2, 2, 0})     // cycle plus self-loop
	f.Add([]byte{3, 7, 0, 7, 3, 0, 3, 7, 1, 200, 255, 0}) // bidirectional, high bytes

	f.Fuzz(func(t *testing.T, data []byte) {
		const vertices = 24
		var updates stream.Batch
		for i := 0; i+2 < len(data) && len(updates) < 120; i += 3 {
			op := stream.Insert
			if data[i+2]&1 == 1 {
				op = stream.Delete
			}
			updates = append(updates, stream.Update{
				U: graph.VertexID(data[i] % vertices), V: graph.VertexID(data[i+1] % vertices), Op: op,
			})
		}
		tab := newEngineTable(t, graph.New(0), 3)
		for i := 0; len(updates) > 0; i++ {
			n := min(8, len(updates))
			tab.apply(updates[:n])
			tab.check(t, fmt.Sprintf("batch %d %v", i, updates[:n]))
			updates = updates[n:]
		}
	})
}
