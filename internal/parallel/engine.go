package parallel

import (
	"fmt"

	"dynppr/internal/graph"
	"dynppr/internal/push"
)

// PushEngine runs the deterministic parallel push over a contribution-PPR
// state (the reverse formulation of internal/push): frontier vertex u sends
// (1−α)·r(u)/dout(v) to every in-neighbor v. It implements push.Engine and
// produces bit-identical results at every worker count — see the package
// comment for the schedule.
type PushEngine struct {
	m *Machine
	// candBuf is the reusable sorted candidate buffer.
	candBuf []int32
}

// NewPushEngine returns a deterministic engine with the given degree of
// parallelism (<= 0 selects GOMAXPROCS) and the default adaptive cutover.
func NewPushEngine(workers int) *PushEngine {
	return &PushEngine{m: NewMachine(workers, 0)}
}

// NewPushEngineCutover is NewPushEngine with an explicit cutover, exposed
// for tests that pin the inline and fanned-out paths.
func NewPushEngineCutover(workers, cutover int) *PushEngine {
	return &PushEngine{m: NewMachine(workers, cutover)}
}

// Name implements push.Engine.
func (e *PushEngine) Name() string {
	return fmt.Sprintf("deterministic-w%d", e.m.Workers())
}

// Workers returns the configured degree of parallelism.
func (e *PushEngine) Workers() int { return e.m.Workers() }

// Run implements push.Engine. The engine keeps nothing of st once Run
// returns, so one engine can serve any number of states in turn (a
// TrackerSet worker runs every source it claims through one) without pinning
// the last one.
func (e *PushEngine) Run(st *push.State, candidates []graph.VertexID) {
	g := st.Graph()
	counters := st.Counters
	w := 1 - st.Alpha()
	propagate := func(d *Delta, u int32, ru float64) {
		in := g.InNeighbors(u)
		counters.AddPropagations(int64(len(in)))
		counters.AddRandomAccesses(int64(len(in)))
		share := w * ru
		for _, v := range in {
			d.Add(v, share/float64(g.OutDegree(v)))
		}
	}
	// Each round's frontier is exactly the set of estimates the round
	// updates; feeding it to st's estimate-dirty set is what lets
	// SnapshotSlot.Publish copy only what changed.
	e.m.SetFrontierHook(st.MarkEstimatesDirty)
	defer e.m.SetFrontierHook(nil)
	p, r := st.Vectors()
	var cands []int32 // nil requests a full scan
	if candidates != nil {
		e.candBuf = SortedCandidatesInto(e.candBuf, candidates, r.Len())
		cands = e.candBuf
	}
	e.m.Converge(p, r, st.Alpha(), st.Epsilon(), cands, counters, propagate)
}
