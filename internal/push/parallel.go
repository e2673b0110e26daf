package push

import (
	"fmt"

	"dynppr/internal/fp"
	"dynppr/internal/graph"
)

// Variant selects which of the paper's optimizations the parallel push
// applies (Table 3). The fully optimized variant ("Opt") is Algorithm 4; the
// fully disabled variant ("Vanilla") is Algorithm 3.
type Variant struct {
	// EagerPropagation re-reads the most recent residual of each frontier
	// vertex during neighbor propagation and subtracts (rather than zeroes)
	// it afterwards, mitigating parallel loss (Section 4.1).
	EagerPropagation bool
	// LocalDuplicateDetection uses the before-value of the atomic residual
	// add to decide which propagation enqueues a newly activated vertex,
	// removing the shared-structure synchronization of unique-enqueue
	// (Section 4.2).
	LocalDuplicateDetection bool
}

// The four variants evaluated in Figure 4.
var (
	VariantOpt       = Variant{EagerPropagation: true, LocalDuplicateDetection: true}
	VariantEager     = Variant{EagerPropagation: true, LocalDuplicateDetection: false}
	VariantDupDetect = Variant{EagerPropagation: false, LocalDuplicateDetection: true}
	VariantVanilla   = Variant{EagerPropagation: false, LocalDuplicateDetection: false}
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case VariantOpt:
		return "Opt"
	case VariantEager:
		return "Eager"
	case VariantDupDetect:
		return "DupDetect"
	case VariantVanilla:
		return "Vanilla"
	default:
		return fmt.Sprintf("Variant(eager=%t,localdup=%t)", v.EagerPropagation, v.LocalDuplicateDetection)
	}
}

// Parallel is the parallel local push engine (Algorithms 3 and 4). Frontier
// vertices are pushed concurrently by a pool of goroutines; residual
// transfers use atomic adds on the shared residual vector. A round over at
// most cutover (fp.Cutover) frontier vertices runs on one worker.
type Parallel struct {
	variant Variant
	workers int
	cutover int
	sc      scratch
}

// NewParallel returns a parallel push engine with the given variant and
// degree of parallelism. workers <= 0 selects GOMAXPROCS.
func NewParallel(variant Variant, workers int) *Parallel {
	if workers <= 0 {
		workers = fp.DefaultWorkers()
	}
	return &Parallel{variant: variant, workers: workers, cutover: fp.Cutover}
}

// Name implements Engine.
func (e *Parallel) Name() string {
	return fmt.Sprintf("parallel-%s-w%d", e.variant, e.workers)
}

// Variant returns the optimization variant of the engine.
func (e *Parallel) Variant() Variant { return e.variant }

// Workers returns the configured degree of parallelism.
func (e *Parallel) Workers() int { return e.workers }

// Run implements Engine.
func (e *Parallel) Run(st *State, candidates []graph.VertexID) {
	e.runPhase(st, candidates, phasePositive)
	e.runPhase(st, candidates, phaseNegative)
}

// propagationGrain is the block size used for dynamic scheduling over the
// frontier; small enough to balance skewed degrees, large enough to amortize
// the atomic claim.
const propagationGrain = 16

func (e *Parallel) runPhase(st *State, candidates []graph.VertexID, ph phase) {
	frontier := st.activeFrom(candidates, ph, &e.sc)
	if len(frontier) == 0 {
		return
	}
	n := len(st.r)
	var seen *fp.BitSet
	var inFrontier *fp.BitSet
	if !e.variant.LocalDuplicateDetection {
		seen = fp.NewBitSet(n)
		if e.variant.EagerPropagation {
			inFrontier = fp.NewBitSet(n)
		}
	}
	for len(frontier) > 0 {
		st.Counters.ObserveIteration(len(frontier))
		// Every frontier vertex's estimate gains its α share this round;
		// record that for delta snapshot publication before fanning out.
		st.MarkEstimatesDirty(frontier)
		workers := e.workers
		if len(frontier) <= e.cutover {
			workers = 1
		}
		if e.variant.EagerPropagation {
			frontier = e.iterateEager(st, frontier, ph, workers, seen, inFrontier)
		} else {
			frontier = e.iterateVanillaOrder(st, frontier, ph, workers, seen)
		}
	}
}

// iterateVanillaOrder performs one ParallelPush round in the order of
// Algorithm 3: self-update first (read and zero the frontier residuals), then
// neighbor propagation with frontier generation.
func (e *Parallel) iterateVanillaOrder(st *State, frontier []int32, ph phase, workers int, seen *fp.BitSet) []int32 {
	alpha := st.cfg.Alpha
	eps := st.cfg.Epsilon
	g := st.g
	counters := st.Counters

	// Session 1 (self-update): S = {(u, R(u))}; P(u) += α·R(u); R(u) = 0.
	// Frontier vertices are distinct, so plain element accesses are safe; the
	// fp.For barrier publishes the writes before session 2 begins.
	p, r := st.p, st.r
	taken := make([]float64, len(frontier))
	fp.For(len(frontier), workers, func(i int) {
		u := frontier[i]
		ru := r[u]
		taken[i] = ru
		p[u] += float64(alpha * ru)
		r[u] = 0
	})
	counters.AddPushes(int64(len(frontier)))

	// Session 2 (neighbor propagation + frontier generation).
	next := fp.NewQueue(len(frontier) * 4)
	fp.ForDynamic(len(frontier), workers, propagationGrain, func(i int) {
		u := graph.VertexID(frontier[i])
		w := taken[i]
		in := g.InNeighbors(u)
		counters.AddPropagations(int64(len(in)))
		counters.AddAtomicAdds(int64(len(in)))
		for _, v := range in {
			inc := (1 - alpha) * w / float64(g.OutDegree(v))
			before := fp.AtomicAddFloat64(&r[v], inc)
			after := before + inc
			if e.variant.LocalDuplicateDetection {
				// Local duplicate detection: enqueue exactly when this
				// propagation crossed the threshold.
				if !ph.cond(before, eps) && ph.cond(after, eps) {
					next.Enqueue(int32(v))
				}
			} else {
				// Global duplicate detection (uniqueEnqueue): synchronize on
				// a shared membership structure.
				if ph.cond(after, eps) {
					if seen.TestAndSet(int(v)) {
						counters.AddDuplicateAttempts(1)
					} else {
						next.Enqueue(int32(v))
					}
				}
			}
		}
	})
	out := append([]int32(nil), next.Drain()...)
	counters.AddEnqueues(int64(len(out)))
	if seen != nil {
		for _, v := range out {
			seen.Clear(int(v))
		}
	}
	return out
}

// iterateEager performs one OptParallelPush round in the order of Algorithm
// 4: neighbor propagation first, reading the most recent residual of each
// frontier vertex, then self-update subtracting exactly the propagated
// amount. A second frontier-generation pass in the self-update session
// catches vertices that remain active across iterations.
func (e *Parallel) iterateEager(st *State, frontier []int32, ph phase, workers int, seen, inFrontier *fp.BitSet) []int32 {
	alpha := st.cfg.Alpha
	eps := st.cfg.Epsilon
	g := st.g
	p, r := st.p, st.r
	counters := st.Counters

	if inFrontier != nil {
		for _, u := range frontier {
			inFrontier.Set(int(u))
		}
	}

	// Session 1 (neighbor propagation): read the up-to-date residual ru,
	// remember it, propagate it, and detect newly activated vertices.
	taken := make([]float64, len(frontier))
	next := fp.NewQueue(len(frontier) * 4)
	fp.ForDynamic(len(frontier), workers, propagationGrain, func(i int) {
		u := graph.VertexID(frontier[i])
		ru := fp.LoadFloat64(&r[u])
		taken[i] = ru
		in := g.InNeighbors(u)
		counters.AddPropagations(int64(len(in)))
		counters.AddAtomicAdds(int64(len(in)))
		for _, v := range in {
			inc := (1 - alpha) * ru / float64(g.OutDegree(v))
			before := fp.AtomicAddFloat64(&r[v], inc)
			after := before + inc
			if e.variant.LocalDuplicateDetection {
				if !ph.cond(before, eps) && ph.cond(after, eps) {
					next.Enqueue(int32(v))
				}
			} else {
				// Current-frontier vertices are handled by the self-update
				// pass; everything else goes through the shared membership
				// structure.
				if ph.cond(after, eps) && !inFrontier.Test(int(v)) {
					if seen.TestAndSet(int(v)) {
						counters.AddDuplicateAttempts(1)
					} else {
						next.Enqueue(int32(v))
					}
				}
			}
		}
	})
	counters.AddPushes(int64(len(frontier)))

	// Session 2 (self-update): commit the recorded residuals and re-enqueue
	// frontier vertices that are still (or again) active.
	fp.For(len(frontier), workers, func(i int) {
		u := frontier[i]
		ru := taken[i]
		p[u] += float64(alpha * ru)
		after := fp.AtomicAddFloat64(&r[u], -ru) - ru
		if ph.cond(after, eps) {
			next.Enqueue(u)
		}
	})
	out := append([]int32(nil), next.Drain()...)
	counters.AddEnqueues(int64(len(out)))
	if seen != nil {
		for _, v := range out {
			seen.Clear(int(v))
		}
	}
	if inFrontier != nil {
		for _, u := range frontier {
			inFrontier.Clear(int(u))
		}
	}
	return out
}
