package vc

import (
	"fmt"

	"dynppr/internal/fp"
	"dynppr/internal/graph"
	"dynppr/internal/push"
)

// PPREngine runs the batch-dynamic PPR local push expressed in the
// vertex-centric abstraction (the "Ligra" baseline of the evaluation). It
// satisfies push.Engine, so the harness can drop it in wherever the
// specialized engines run.
//
// Each push round is one VertexMap (self-update: take the residual, credit
// the estimate) followed by one EdgeMap (neighbor propagation with
// framework-level duplicate elimination). Because the abstraction is bulk
// synchronous, the engine cannot read residual increments that arrive during
// the same superstep (no eager propagation) and must pay the shared-bitmap
// synchronization for frontier deduplication (no local duplicate detection).
// Like the specialized parallel engines, it runs a round over at most
// cutover (fp.Cutover) frontier vertices on one worker.
type PPREngine struct {
	workers int
	cutover int
}

// NewPPREngine returns the vertex-centric PPR engine. workers <= 0 selects
// GOMAXPROCS.
func NewPPREngine(workers int) *PPREngine {
	return NewPPREngineCutover(workers, fp.Cutover)
}

// NewPPREngineCutover is NewPPREngine with an explicit cutover, exposed for
// the engine table, which fans every round out (cutover 1).
func NewPPREngineCutover(workers, cutover int) *PPREngine {
	return &PPREngine{workers: workers, cutover: cutover}
}

// Name implements push.Engine.
func (e *PPREngine) Name() string { return fmt.Sprintf("ligra-w%d", e.workers) }

// Run implements push.Engine.
func (e *PPREngine) Run(st *push.State, candidates []graph.VertexID) {
	// The framework applies self-updates inside concurrent supersteps with
	// no per-round frontier hook, so this baseline cannot track estimate
	// dirtiness cheaply; poison the set so snapshot publication falls back
	// to a full copy instead of trusting an incomplete delta.
	st.MarkAllEstimatesDirty()
	e.runPhase(st, candidates, +1)
	e.runPhase(st, candidates, -1)
}

func (e *PPREngine) runPhase(st *push.State, candidates []graph.VertexID, sign int) {
	g := st.Graph()
	fanOut, inline := NewFramework(g, e.workers), NewFramework(g, 1)
	n := g.NumVertices()
	alpha := st.Alpha()
	eps := st.Epsilon()
	p, r := st.Vectors()

	cond := func(r float64) bool {
		if sign > 0 {
			return r > eps
		}
		return r < -eps
	}

	frontier := NewSparseSubset(n, st.ActiveVertices(candidates, sign))
	// pushed[u] carries the residual taken from u during the VertexMap of the
	// current superstep, for use by the following EdgeMap.
	pushed := make([]float64, n)

	for members := frontier.Size(); members > 0; members = frontier.Size() {
		st.Counters.ObserveIteration(members)
		st.Counters.AddPushes(int64(members))
		fw := fanOut
		if members <= e.cutover {
			fw = inline
		}

		// Self-update as a VertexMap.
		fw.VertexMap(frontier, func(u graph.VertexID) bool {
			ru := fp.SwapFloat64(&r[u], 0)
			pushed[u] = ru
			p[u] += float64(alpha * ru)
			return false
		})

		// Neighbor propagation as an EdgeMap over in-edges of the frontier.
		next := fw.EdgeMap(frontier,
			func(u, v graph.VertexID) bool {
				inc := (1 - alpha) * pushed[u] / float64(g.OutDegree(v))
				after := fp.AtomicAddFloat64(&r[v], inc) + inc
				st.Counters.AddPropagations(1)
				st.Counters.AddAtomicAdds(1)
				return cond(after)
			},
			func(v graph.VertexID) bool { return true },
		)
		st.Counters.AddEnqueues(int64(next.Size()))
		frontier = next
	}
}
