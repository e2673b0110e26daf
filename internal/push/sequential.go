package push

import (
	"dynppr/internal/graph"
	"dynppr/internal/metrics"
)

// Sequential is the state-of-the-art sequential local push (Algorithm 2 of
// the paper, following Zhang et al.). Frontier vertices are processed one at
// a time from a FIFO work queue; each push moves the α share of the residual
// into the estimate and propagates the remaining (1−α) share to the
// in-neighbors, scaled by their out-degrees.
//
// The engine is stateless, so one value may serve any number of states. A
// phase only moves residuals in its own direction (the positive phase only
// adds, the negative phase only subtracts), so a vertex is in the FIFO
// exactly while its residual satisfies the phase's push condition: it enters
// when a propagation carries it across the threshold and leaves when it is
// pushed to zero. FIFO membership therefore follows the threshold crossing,
// and no membership bitmap is kept. The queue is the state's scratch, so the
// steady-state batch path allocates nothing.
type Sequential struct{}

// NewSequential returns the sequential push engine.
func NewSequential() *Sequential { return &Sequential{} }

// Name implements Engine.
func (e *Sequential) Name() string { return "sequential" }

// Run implements Engine.
func (e *Sequential) Run(st *State, candidates []graph.VertexID) {
	e.runPhase(st, candidates, phasePositive)
	e.runPhase(st, candidates, phaseNegative)
}

func (e *Sequential) runPhase(st *State, candidates []graph.VertexID, ph phase) {
	eps := st.cfg.Epsilon
	alpha := st.cfg.Alpha
	g := st.g
	queue := st.activeFrom(candidates, ph)
	if len(queue) == 0 {
		return
	}
	// The work is tallied in locals and published with one Merge per phase;
	// each push counts as one iteration over a frontier of one.
	var pushes, props, enqueues int64
	for head := 0; head < len(queue); { // queue[head:] is the FIFO
		u := queue[head]
		head++
		ru := st.r[u]
		if !ph.cond(ru, eps) {
			continue
		}
		pushes++
		// Self-update: move the α share into the estimate, clear the residual.
		st.p[u] += float64(alpha * ru)
		st.r[u] = 0
		st.markEstimateDirty(u)
		// Neighbor propagation: each in-neighbor v of u receives
		// (1−α)·ru/dout(v).
		in := g.InNeighbors(graph.VertexID(u))
		props += int64(len(in))
		spread := (1 - alpha) * ru
		for _, v := range in {
			old := st.r[v]
			nr := old + spread/float64(g.OutDegree(v))
			st.r[v] = nr
			if ph.cond(nr, eps) && !ph.cond(old, eps) {
				if len(queue) == cap(queue) && head > len(queue)/2 {
					// More than half already dequeued: slide, don't grow.
					queue = queue[:copy(queue, queue[head:])]
					head = 0
				}
				queue = append(queue, int32(v))
				enqueues++
			}
		}
	}
	st.activeBuf = queue[:0]
	st.Counters.Merge(&metrics.Counters{
		Pushes:        pushes,
		Propagations:  props,
		Enqueues:      enqueues,
		Iterations:    pushes,
		FrontierTotal: pushes,
		FrontierPeak:  min(pushes, 1),
	})
}
