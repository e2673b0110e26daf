package push

import (
	"math"
	"math/rand"
	"testing"

	"dynppr/internal/graph"
	"dynppr/internal/stream"
)

// bitmapSequential is the sequential push as it was written with a FIFO
// membership bitmap and per-push counter atomics, kept verbatim as the
// reference the bitmap-free kernel must reproduce bit for bit.
type bitmapSequential struct {
	inQueue []bool
}

func (e *bitmapSequential) Run(st *State, candidates []graph.VertexID) {
	e.runPhase(st, candidates, phasePositive)
	e.runPhase(st, candidates, phaseNegative)
}

func (e *bitmapSequential) runPhase(st *State, candidates []graph.VertexID, ph phase) {
	eps := st.cfg.Epsilon
	alpha := st.cfg.Alpha
	g := st.g
	queue := st.activeFrom(candidates, ph)
	if len(queue) == 0 {
		return
	}
	if n := len(st.r); len(e.inQueue) < n {
		e.inQueue = append(e.inQueue, make([]bool, n-len(e.inQueue))...)
	}
	inQueue := e.inQueue
	for _, v := range queue {
		inQueue[v] = true
	}
	counters := st.Counters
	for head := 0; head < len(queue); { // queue[head:] is the FIFO
		u := queue[head]
		head++
		inQueue[u] = false
		ru := st.r[u]
		if !ph.cond(ru, eps) {
			continue
		}
		counters.AddPushes(1)
		counters.ObserveIteration(1)
		// Self-update: move the α share into the estimate, clear the residual.
		st.p[u] += float64(alpha * ru)
		st.r[u] = 0
		st.markEstimateDirty(u)
		// Neighbor propagation: each in-neighbor v of u receives
		// (1−α)·ru/dout(v).
		in := g.InNeighbors(graph.VertexID(u))
		counters.AddPropagations(int64(len(in)))
		for _, v := range in {
			dv := float64(g.OutDegree(v))
			nr := st.r[v] + (1-alpha)*ru/dv
			st.r[v] = nr
			if ph.cond(nr, eps) && !inQueue[v] {
				inQueue[v] = true
				if len(queue) == cap(queue) && head > len(queue)/2 {
					// More than half already dequeued: slide, don't grow.
					queue = queue[:copy(queue, queue[head:])]
					head = 0
				}
				queue = append(queue, int32(v))
				counters.AddEnqueues(1)
			}
		}
	}
	st.activeBuf = queue[:0]
}

// TestSequentialMatchesBitmapKernel runs the bitmap reference and Sequential
// side by side over seeded random graphs with self-loops and sinks, through
// a cold start and then insert/delete batches — some deleting a vertex's
// last out-edge, which leaves a negative residual for the negative phase —
// handed to Run as duplicated, out-of-range-padded or nil candidate lists.
// After every Run the two states' estimates and residuals must agree in
// every bit and their counters in every field.
func TestSequentialMatchesBitmapKernel(t *testing.T) {
	var negativeRuns, selfLoops int
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(300)
		sinks := n / 10 // vertices [0, sinks) start with no out-edge
		var edges []graph.Edge
		for i := 0; i < 6*n; i++ {
			u := graph.VertexID(sinks + rng.Intn(n-sinks))
			v := graph.VertexID(rng.Intn(n))
			if rng.Intn(20) == 0 {
				v = u
			}
			edges = append(edges, graph.Edge{U: u, V: v})
		}
		g := graph.FromEdges(edges)
		for u := graph.VertexID(0); int(u) < n; u++ {
			if g.HasEdge(u, u) {
				selfLoops++
			}
		}
		cfg := Config{Alpha: 0.15, Epsilon: 1e-3 * rng.Float64()}
		source := graph.VertexID(sinks + rng.Intn(n-sinks))
		ref, got := newDiffState(t, g, source, cfg), newDiffState(t, g, source, cfg)
		refEngine, engine := &bitmapSequential{}, NewSequential()
		run := func(what string, candidates []graph.VertexID) {
			t.Helper()
			refEngine.Run(ref, candidates)
			engine.Run(got, candidates)
			requireSameRun(t, what, ref, got)
		}
		run("cold start", []graph.VertexID{source})

		for batch := 0; batch < 8; batch++ {
			var touched []graph.VertexID
			for i := 0; i < 1+rng.Intn(3*n/4); i++ {
				u := graph.VertexID(rng.Intn(n + 2)) // occasionally a new vertex
				up := stream.Update{U: u, Op: stream.Delete}
				switch out := g.OutNeighbors(u); {
				case len(out) == 1 || len(out) > 0 && rng.Intn(3) == 0:
					// A lone out-edge goes every time: dout(u) drops to 0.
					up.V = out[rng.Intn(len(out))]
				default:
					up.V, up.Op = graph.VertexID(rng.Intn(n)), stream.Insert
					if rng.Intn(20) == 0 {
						up.V = u
					}
				}
				touched = Restore(g, []*State{ref, got}, stream.Batch{up}, touched)
			}
			if len(ref.r) > 0 && minResidual(ref) < -cfg.Epsilon {
				negativeRuns++
			}
			var candidates []graph.VertexID
			switch batch % 3 {
			case 0:
				candidates = touched
			case 1:
				candidates = append(append([]graph.VertexID{-1, graph.VertexID(g.NumVertices() + 5)}, touched...), touched...)
			case 2:
				candidates = nil
			}
			run("batch", candidates)
		}
	}
	if negativeRuns == 0 || selfLoops == 0 {
		t.Fatalf("the graphs never exercised the negative phase (%d) or a self-loop (%d)", negativeRuns, selfLoops)
	}
}

func newDiffState(t *testing.T, g *graph.Graph, source graph.VertexID, cfg Config) *State {
	t.Helper()
	st, err := NewState(g, source, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func minResidual(st *State) float64 {
	m := math.Inf(1)
	for _, r := range st.Residuals() {
		m = math.Min(m, r)
	}
	return m
}

func requireSameRun(t *testing.T, what string, ref, got *State) {
	t.Helper()
	if !bitsEq(got.Estimates(), ref.Estimates()) || !bitsEq(got.Residuals(), ref.Residuals()) {
		t.Fatalf("%s: vectors diverge from the bitmap kernel", what)
	}
	if g, r := got.Counters.Snapshot(), ref.Counters.Snapshot(); g != r {
		t.Fatalf("%s: counters %+v, bitmap kernel %+v", what, g, r)
	}
	if !got.Converged() {
		t.Fatalf("%s: not converged", what)
	}
}
