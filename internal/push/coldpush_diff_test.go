package push

import (
	"slices"
	"testing"

	"dynppr/internal/gen"
	"dynppr/internal/graph"
)

// sortedColdScratch is the cold-push scratch as it was written with a
// first-touch list and a sort of the answer's ids, kept verbatim as the
// reference the bitmap-swept kernel must reproduce bit for bit.
type sortedColdScratch struct {
	cells []coldCell
	// touched names, once each, every vertex whose cell may be nonzero, in
	// first-touch order.
	touched []graph.VertexID
	// queue[head:] is the FIFO frontier. A vertex is queued exactly while its
	// residual exceeds ε (it enters when an update carries it across ε and
	// leaves when it is pushed to zero), so no membership bitmap is needed.
	queue []graph.VertexID
	head  int
	ids   []graph.VertexID // sort buffer for the answer's vertex list
}

// push runs one bounded cold push on scratch sc: seed the source, drain the
// frontier, extract the answer. The caller has validated cfg and source.
func (sc *sortedColdScratch) push(view *graph.View, source graph.VertexID, cfg Config, maxPushes int64) *ColdPushResult {
	if n := view.NumVertices(); len(sc.cells) < n {
		// The old cells are all zero, so growing is a fresh allocation; the
		// slack keeps a graph that grows a vertex at a time from paying it
		// per query.
		sc.cells = make([]coldCell, n+n/8)
	}
	res := &ColdPushResult{}
	sc.cells[source] = coldCell{r: 1, outDeg: float64(view.OutDegree(source))}
	sc.touched = append(sc.touched, source)
	sc.queue = append(sc.queue, source)
	sc.drain(view, res, cfg.Alpha, cfg.Epsilon, maxPushes)
	sc.finish(res)
	return res
}

// drain is the frontier kernel: it pushes the queue dry at threshold eps,
// stopping early (res.Capped) when the push count reaches maxPushes. The
// view is consulted once per push (the in-neighbor slice) and once per first
// touch (the out-degree, cached in the cell), never per edge.
func (sc *sortedColdScratch) drain(view *graph.View, res *ColdPushResult, alpha, eps float64, maxPushes int64) {
	cells := sc.cells
	for sc.head < len(sc.queue) {
		if maxPushes > 0 && res.Pushes >= maxPushes {
			res.Capped = true
			break
		}
		u := sc.queue[sc.head]
		sc.head++
		ru := cells[u].r
		if ru <= eps {
			continue
		}
		res.Pushes++
		cells[u].p += float64(alpha * ru)
		cells[u].r = 0
		spread := (1 - alpha) * ru
		for _, v := range view.InNeighbors(u) {
			c := &cells[v]
			if c.outDeg == 0 {
				c.outDeg = float64(view.OutDegree(v))
				sc.touched = append(sc.touched, v)
			}
			old := c.r
			c.r = old + spread/c.outDeg
			if old <= eps && c.r > eps {
				sc.queue = append(sc.queue, v)
			}
		}
	}
	sc.queue, sc.head = sc.queue[:0], 0
}

// finish extracts the sparse answer and the residual bound from the touched
// cells and returns the scratch to its all-zero state.
func (sc *sortedColdScratch) finish(res *ColdPushResult) {
	ids := sc.ids[:0]
	for _, v := range sc.touched {
		c := sc.cells[v]
		if c.r > res.MaxResidual {
			res.MaxResidual = c.r
		}
		if c.p != 0 {
			ids = append(ids, v)
		}
	}
	slices.Sort(ids)
	res.Vertices = make([]graph.VertexID, len(ids))
	copy(res.Vertices, ids)
	res.Estimates = make([]float64, len(ids))
	for i, v := range ids {
		res.Estimates[i] = sc.cells[v].p
	}
	for _, v := range sc.touched {
		sc.cells[v] = coldCell{}
	}
	sc.touched, sc.ids = sc.touched[:0], ids
}

// diffColdGraph generates a graph of the model and shape, then bends it
// toward the cases a cold push must get right: vertices [0, n/20) are sinks
// (no out-edge), every 17th vertex has a self-loop, and vertex hub points at
// every 7th vertex and is pointed at by every 5th.
func diffColdGraph(t *testing.T, model gen.Model, n, m int, seed int64) (g *graph.Graph, hub graph.VertexID) {
	t.Helper()
	list, err := gen.EdgeList(gen.Config{Model: model, Vertices: n, Edges: m, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sinks := graph.VertexID(n / 20)
	hub = sinks + 3
	var edges []graph.Edge
	for _, e := range list {
		if e.U >= sinks {
			edges = append(edges, e)
		}
	}
	for v := sinks; int(v) < n; v++ {
		if v%17 == 0 {
			edges = append(edges, graph.Edge{U: v, V: v})
		}
		if v%7 == 0 {
			edges = append(edges, graph.Edge{U: hub, V: v})
		}
		if v%5 == 0 {
			edges = append(edges, graph.Edge{U: v, V: hub})
		}
	}
	return graph.FromEdges(edges), hub
}

// TestColdPushMatchesSortedKernel runs the bitmap-swept kernel and the
// first-touch-list + sort reference side by side on one scratch each, reused
// across an Erdős–Rényi and R-MAT sequence of small → big → small graphs (so
// the bitmaps grow and then serve a smaller graph), on the bare compacted
// base and on base plus overlays with a vertex beyond the base, from hubs,
// sinks, self-loop vertices and ordinary sources, run to ε and capped at 1,
// 3 and 50 pushes. Ids, every estimate's and MaxResidual's bits, Pushes and
// Capped must agree.
func TestColdPushMatchesSortedKernel(t *testing.T) {
	shapes := []struct {
		name  string
		model gen.Model
		n, m  int
		seed  int64
	}{
		{"ER small", gen.ErdosRenyi, 300, 1500, 21},
		{"R-MAT big", gen.RMAT, 20_000, 120_000, 22},
		{"R-MAT small", gen.RMAT, 500, 3000, 23},
		{"ER big", gen.ErdosRenyi, 9_000, 40_000, 24},
	}
	var sc coldScratch
	var ref sortedColdScratch
	wideAnswers := 0 // answers whose ids span more than one sum word
	for _, sh := range shapes {
		g, hub := diffColdGraph(t, sh.model, sh.n, sh.m, sh.seed)
		compacted := g.View()
		if compacted.DeltaEdges() != 0 {
			t.Fatalf("%s: fresh graph must have no overlays", sh.name)
		}
		// A batch: every 9th vertex loses its first out-edge, every 11th
		// gains one, and two vertices beyond the base appear, one pointing at
		// the hub and one at the other.
		n := graph.VertexID(sh.n)
		for u := graph.VertexID(0); u < n; u += 9 {
			if out := g.OutNeighbors(u); len(out) > 0 {
				if err := g.RemoveEdge(u, out[0]); err != nil {
					t.Fatal(err)
				}
			}
		}
		for u := graph.VertexID(1); u < n; u += 11 {
			if _, err := g.AddEdge(u, (u*31+7)%n); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range []graph.Edge{{U: n, V: hub}, {U: n + 1, V: n}} {
			if _, err := g.AddEdge(e.U, e.V); err != nil {
				t.Fatal(err)
			}
		}
		overlaid := g.View()
		if overlaid.DeltaEdges() == 0 {
			t.Fatalf("%s: the batch must leave overlays", sh.name)
		}

		selfLoop := (hub/17 + 1) * 17
		sources := []graph.VertexID{hub, 0, selfLoop, n / 2, n - 1}
		for _, view := range []struct {
			name    string
			v       *graph.View
			sources []graph.VertexID
		}{
			{"compacted", compacted, sources},
			{"overlaid", overlaid, append(slices.Clone(sources), n, n+1)},
		} {
			for _, src := range view.sources {
				for _, cfg := range []Config{{Alpha: 0.15, Epsilon: 1e-4}, {Alpha: 0.2, Epsilon: 1e-6}} {
					for _, limit := range []int64{0, 1, 3, 50} {
						want := ref.push(view.v, src, cfg, limit)
						got := sc.push(view.v, src, cfg, limit)
						what := sh.name + " " + view.name
						requireSamePush(t, what, got, want)
						if len(got.Vertices) > 0 && got.Vertices[len(got.Vertices)-1]-got.Vertices[0] >= 4096 {
							wideAnswers++
						}
					}
				}
			}
		}
		if len(sc.cells) < sh.n || len(sc.seen)*64 < len(sc.cells) || len(sc.sum)*64 < len(sc.seen) {
			t.Fatalf("%s: scratch of %d cells, %d seen and %d sum words does not cover %d vertices",
				sh.name, len(sc.cells), len(sc.seen), len(sc.sum), sh.n)
		}
	}
	if wideAnswers == 0 {
		t.Fatal("no answer spanned more than one sum word")
	}
}
