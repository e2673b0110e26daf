package push

import (
	"fmt"
	"sort"

	"dynppr/internal/fp"
	"dynppr/internal/graph"
)

// SortAggregate is the alternative parallel push the paper describes (and
// rejects) in Section 3.1: instead of transferring residuals to neighbors
// with atomic adds, every propagation emits a (neighbor, increment) pair;
// the pairs are then sorted by neighbor id, reduced per key, and the
// aggregated increments are applied without any atomics. The paper keeps the
// atomic method because the sort dominates for large frontiers; this engine
// exists so that the claim can be measured (BenchmarkAblation_SortAggregate).
//
// The engine follows the vanilla session order of Algorithm 3 (self-update
// first, then propagation), with frontier generation performed during the
// aggregation pass — which is naturally duplicate free, since each vertex
// appears exactly once after the reduce.
//
// Like Parallel, it runs a round over at most cutover (fp.Cutover) frontier
// vertices on one worker.
type SortAggregate struct {
	workers int
	cutover int
	sc      scratch
}

// NewSortAggregate returns the sorting-and-aggregating parallel push engine.
// workers <= 0 selects GOMAXPROCS.
func NewSortAggregate(workers int) *SortAggregate {
	if workers <= 0 {
		workers = fp.DefaultWorkers()
	}
	return &SortAggregate{workers: workers, cutover: fp.Cutover}
}

// Name implements Engine.
func (e *SortAggregate) Name() string { return fmt.Sprintf("sort-aggregate-w%d", e.workers) }

// Workers returns the configured degree of parallelism.
func (e *SortAggregate) Workers() int { return e.workers }

// Run implements Engine.
func (e *SortAggregate) Run(st *State, candidates []graph.VertexID) {
	e.runPhase(st, candidates, phasePositive)
	e.runPhase(st, candidates, phaseNegative)
}

// contribution is one emitted (neighbor, increment) pair.
type contribution struct {
	vertex int32
	inc    float64
}

func (e *SortAggregate) runPhase(st *State, candidates []graph.VertexID, ph phase) {
	frontier := st.activeFrom(candidates, ph, &e.sc)
	for len(frontier) > 0 {
		st.Counters.ObserveIteration(len(frontier))
		// The self-update session changes every frontier vertex's estimate;
		// record that for delta snapshot publication before fanning out.
		st.MarkEstimatesDirty(frontier)
		frontier = e.iterate(st, frontier, ph)
	}
}

func (e *SortAggregate) iterate(st *State, frontier []int32, ph phase) []int32 {
	alpha := st.cfg.Alpha
	eps := st.cfg.Epsilon
	g := st.g
	p, r := st.p, st.r
	counters := st.Counters
	workers := e.workers
	if len(frontier) <= e.cutover {
		workers = 1
	}

	// Session 1: self-update, identical to the vanilla order.
	taken := make([]float64, len(frontier))
	fp.For(len(frontier), workers, func(i int) {
		u := frontier[i]
		ru := r[u]
		taken[i] = ru
		p[u] += float64(alpha * ru)
		r[u] = 0
	})
	counters.AddPushes(int64(len(frontier)))

	// Session 2: emit contributions into per-slot buffers (no shared writes),
	// then sort and reduce.
	buffers := make([][]contribution, len(frontier))
	fp.ForDynamic(len(frontier), workers, propagationGrain, func(i int) {
		u := graph.VertexID(frontier[i])
		w := taken[i]
		in := g.InNeighbors(u)
		counters.AddPropagations(int64(len(in)))
		buf := make([]contribution, 0, len(in))
		for _, v := range in {
			buf = append(buf, contribution{
				vertex: int32(v),
				inc:    (1 - alpha) * w / float64(g.OutDegree(v)),
			})
		}
		buffers[i] = buf
	})
	total := 0
	for _, b := range buffers {
		total += len(b)
	}
	all := make([]contribution, 0, total)
	for _, b := range buffers {
		all = append(all, b...)
	}
	// Parallel-sort stand-in: the standard library sort; the cost being
	// measured is exactly the point of the paper's footnote.
	sort.Slice(all, func(i, j int) bool { return all[i].vertex < all[j].vertex })

	// Reduce by key and apply; each distinct vertex is touched exactly once,
	// so the writes need no synchronization and frontier generation needs no
	// duplicate detection.
	var next []int32
	for i := 0; i < len(all); {
		v := all[i].vertex
		sum := 0.0
		for ; i < len(all) && all[i].vertex == v; i++ {
			sum += all[i].inc
		}
		nr := r[v] + sum
		r[v] = nr
		if ph.cond(nr, eps) {
			next = append(next, v)
		}
	}
	counters.AddEnqueues(int64(len(next)))
	return next
}
