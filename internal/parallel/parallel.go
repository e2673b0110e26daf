// Package parallel implements PushEngine, a deterministic parallel local push
// over the contribution-PPR state of internal/push: the active residual
// frontier is partitioned into a fixed number of stripes, each stripe
// accumulates its residual transfers into a private delta buffer, and the
// buffers are merged by an ordered reduction — every vertex is merged by
// exactly one goroutine, summing the stripe deltas in fixed stripe order.
// Because the stripe partition depends only on the frontier (never on the
// worker count) and every floating-point addition happens in a
// schedule-independent order, the engine produces bit-identical estimate and
// residual vectors at any degree of parallelism: running with 8 workers
// yields exactly the float64 bits of the single-worker (sequential)
// execution.
//
// This determinism is what the atomic-add engines of internal/push cannot
// offer: there, the order in which concurrent AtomicAdd calls land on a
// residual depends on goroutine scheduling, so two runs differ in the last
// ulps even though both stay within ε. The deterministic engine makes the
// serving layer reproducible — replaying a batch log yields identical
// snapshots — at the cost of a round-synchronous schedule.
//
// The round schedule is the eager-propagation order of the paper's Algorithm
// 4: every frontier vertex propagates the residual it holds at round start,
// and the self-update afterwards subtracts exactly the propagated amount, so
// residual mass arriving mid-round is kept rather than lost to the next
// round. Within a round there are four barrier-separated sessions:
//
//  1. Stripe propagation: stripe k owns the contiguous frontier range
//     [k·F/S, (k+1)·F/S) and sends (1−α)·r(u)/dout(v) from each of its
//     vertices u to every in-neighbor v, into its private delta buffer. No
//     shared writes. A stripe reads its own accumulated delta on top of the
//     round-start residual (intra-stripe absorption), recovering part of the
//     sequential engine's Gauss–Seidel efficiency without giving up
//     determinism.
//  2. Ordered merge: the union of touched vertices is collected in stripe
//     order, then each touched vertex v — owned by exactly one iteration —
//     receives r(v) += Σ_k delta_k(v) with k ascending. Adding the zero
//     entries of non-touching stripes is exact, so the sum is independent of
//     which stripes touched v.
//  3. Self-update: every frontier vertex u commits p(u) += α·taken(u) and
//     r(u) -= taken(u). Frontier vertices are distinct, so no shared writes.
//  4. Frontier generation: touched vertices still violating the threshold
//     form the next frontier, in the (deterministic) order the merge
//     collected them.
//
// Small frontiers — at most fp.Cutover (128) vertices — fall back to an
// inline single-worker execution of the very same schedule (the adaptive
// cutover), so the small incremental batches of a converged tracker pay no
// goroutine fan-out and stay bit-identical.
//
// Determinism is not free. The round-synchronous schedule performs ≈ 1.3–1.5×
// the pushes of the sequential FIFO engine: deferred merges re-activate
// frontier vertices that sequential processing would have drained in place.
// On a 2-vCPU box (benchmark/README.md) the engine at nproc ran at 0.58–0.91×
// the sequential push on 10 000-update batches and 0.31–0.38× on 100-update
// batches, and at one worker it is ≈ 1.4× slower than sequential, so the cost
// is the schedule itself, not only the fan-out. Whether it wins on ≥ 4 real
// cores, the paper's scaling claim, has not been measured. That is why a
// Service runs the sequential push and offers no engine choice.
package parallel

import (
	"fmt"
	"slices"

	"dynppr/internal/fp"
	"dynppr/internal/graph"
	"dynppr/internal/push"
)

// NumStripes is the number of frontier stripes (and private delta buffers).
// It is a fixed constant — independent of the worker count — because the
// stripe partition determines the floating-point summation order: changing
// it changes the last-ulp rounding of results (never their ε-accuracy).
// Propagation parallelism is therefore capped at NumStripes. Fewer stripes
// also mean more intra-stripe absorption (see round) and a cheaper merge,
// at the cost of the parallelism cap.
const NumStripes = 8

// mergeGrain is the dynamic-scheduling block size for the merge and
// self-update sessions.
const mergeGrain = 64

// delta is one stripe's private residual-delta buffer: a dense float64
// vector plus the list of touched vertices in first-touch order. Within one
// push phase every increment has the same sign and is non-zero, so a zero
// entry means "untouched" and no separate membership structure is needed.
type delta struct {
	buf     []float64
	touched []int32
}

// add accumulates inc into the delta of v. inc must be non-zero and carry
// the sign of the current phase (see the delta invariant above).
func (d *delta) add(v int32, inc float64) {
	if d.buf[v] == 0 {
		d.touched = append(d.touched, v)
	}
	d.buf[v] += inc
}

// PushEngine runs the deterministic parallel push. It implements push.Engine
// and produces bit-identical results at every worker count. Its fields are
// reusable scratch, not shared state: like the engines of internal/push it
// must be driven from one goroutine at a time (the parallelism lives inside
// Run), and it keeps nothing of a state once Run returns, so one engine can
// serve any number of states in turn (a TrackerSet worker runs every source
// it claims through one) without pinning the last one.
type PushEngine struct {
	workers int
	cutover int

	stripes [NumStripes]delta
	taken   []float64
	marked  []bool
	merged  []int32
	// free holds the frontier buffers not currently in use; a phase
	// double-buffers the frontier through them, so the steady state runs
	// with two recycled arrays and no allocation.
	free [][]int32
	// cands is the reusable sorted candidate buffer.
	cands []int32
}

// NewPushEngine returns a deterministic engine with the given degree of
// parallelism (<= 0 selects GOMAXPROCS) and the adaptive cutover fp.Cutover.
func NewPushEngine(workers int) *PushEngine {
	return NewPushEngineCutover(workers, 0)
}

// NewPushEngineCutover is NewPushEngine with an explicit cutover (<= 0
// selects fp.Cutover), exposed for tests that pin the inline and
// fanned-out paths. Neither argument ever influences results, only
// wall-clock time.
func NewPushEngineCutover(workers, cutover int) *PushEngine {
	if cutover <= 0 {
		cutover = fp.Cutover
	}
	return &PushEngine{workers: fp.ClampWorkers(workers), cutover: cutover}
}

// Name implements push.Engine.
func (e *PushEngine) Name() string {
	return fmt.Sprintf("deterministic-w%d", e.workers)
}

// Workers returns the configured degree of parallelism.
func (e *PushEngine) Workers() int { return e.workers }

// Run implements push.Engine: it drains every residual whose absolute value
// exceeds ε, first the positive then the negative phase, exactly like the
// engines of internal/push. Candidates outside the graph are ignored and
// duplicates collapse; nil requests a full scan, and an empty non-nil list
// pushes nothing.
func (e *PushEngine) Run(st *push.State, candidates []graph.VertexID) {
	_, r := st.Vectors()
	var cands []int32 // nil requests a full scan
	if candidates != nil {
		// Sorted and deduplicated, so the first frontier — and with it the
		// stripe partition — does not depend on how the caller listed them.
		cands = e.cands[:0]
		for _, v := range candidates {
			if v >= 0 && int(v) < len(r) {
				cands = append(cands, v)
			}
		}
		slices.Sort(cands)
		cands = slices.Compact(cands)
		e.cands = cands
		if len(cands) == 0 {
			return
		}
	}
	e.ensure(len(r))
	e.convergePhase(st, cands, true)
	e.convergePhase(st, cands, false)
}

// getBuf pops a recycled frontier buffer (empty, possibly nil on first use).
func (e *PushEngine) getBuf() []int32 {
	if n := len(e.free); n > 0 {
		b := e.free[n-1]
		e.free = e.free[:n-1]
		return b[:0]
	}
	return nil
}

// putBuf returns a frontier buffer to the recycle pool.
func (e *PushEngine) putBuf(b []int32) {
	if cap(b) > 0 {
		e.free = append(e.free, b[:0])
	}
}

// ensure grows the per-vertex buffers to cover n vertices.
func (e *PushEngine) ensure(n int) {
	if len(e.marked) >= n {
		return
	}
	e.marked = append(e.marked, make([]bool, n-len(e.marked))...)
	for k := range e.stripes {
		d := &e.stripes[k]
		d.buf = append(d.buf, make([]float64, n-len(d.buf))...)
	}
}

func (e *PushEngine) convergePhase(st *push.State, candidates []int32, positive bool) {
	eps := st.Epsilon()
	cond := func(x float64) bool { return x > eps }
	if !positive {
		cond = func(x float64) bool { return x < -eps }
	}
	frontier := e.initialFrontier(st, candidates, cond)
	for len(frontier) > 0 {
		st.Counters.ObserveIteration(len(frontier))
		// Each round's frontier is exactly the set of estimates the round
		// updates; feeding it to st's estimate-dirty set is what lets
		// SnapshotSlot.Publish copy only what changed.
		st.MarkEstimatesDirty(frontier)
		frontier = e.round(st, frontier, cond)
	}
	e.putBuf(frontier)
}

// initialFrontier filters the candidates (or all vertices) by the phase
// condition into a recycled frontier buffer. candidates are sorted, so the
// result is sorted.
func (e *PushEngine) initialFrontier(st *push.State, candidates []int32, cond func(float64) bool) []int32 {
	_, r := st.Vectors()
	frontier := e.getBuf()
	if candidates == nil {
		for v, rv := range r {
			if cond(rv) {
				frontier = append(frontier, int32(v))
			}
		}
	} else {
		for _, v := range candidates {
			if cond(r[v]) {
				frontier = append(frontier, v)
			}
		}
	}
	return frontier
}

// round executes one barrier-synchronous push round over the frontier and
// returns the next frontier. The returned slice reuses e's buffers; the
// frontier passed in is recycled as the next spare buffer.
func (e *PushEngine) round(st *push.State, frontier []int32, cond func(float64) bool) []int32 {
	workers := e.workers
	if len(frontier) <= e.cutover {
		// Adaptive cutover: same schedule, same arithmetic, inline — the
		// fp helpers run the loop on the calling goroutine for workers 1.
		workers = 1
	}
	g := st.Graph()
	p, r := st.Vectors()
	alpha := st.Alpha()
	w := 1 - alpha
	counters := st.Counters
	F := len(frontier)
	if cap(e.taken) < F {
		e.taken = make([]float64, F)
	}
	taken := e.taken[:F]

	// Session 1: stripe propagation. Stripe k owns the contiguous frontier
	// range [k·F/S, (k+1)·F/S); the partition depends only on F. The
	// residual taken from u is the round-start value plus whatever this
	// stripe itself has already accumulated on u (intra-stripe absorption):
	// the stripe's own deltas are produced by its fixed sequential scan, so
	// reading them is as deterministic as reading r, and the mass they carry
	// is propagated this round instead of costing an extra round.
	fp.ForDynamic(NumStripes, workers, 1, func(k int) {
		d := &e.stripes[k]
		lo, hi := k*F/NumStripes, (k+1)*F/NumStripes
		for i := lo; i < hi; i++ {
			u := frontier[i]
			ru := r[u] + d.buf[u]
			taken[i] = ru
			in := g.InNeighbors(u)
			counters.AddPropagations(int64(len(in)))
			share := w * ru
			for _, v := range in {
				d.add(v, share/float64(g.OutDegree(v)))
			}
		}
	})
	counters.AddPushes(int64(F))

	// Session 2: ordered merge. Collect the union of touched vertices in
	// stripe order (cheap, sequential), then merge each exactly once,
	// summing stripe deltas in ascending stripe order. Zero entries of
	// stripes that did not touch v contribute exactly nothing, so the sum
	// does not depend on which stripes touched v.
	merged := e.merged[:0]
	for k := range e.stripes {
		for _, v := range e.stripes[k].touched {
			if !e.marked[v] {
				e.marked[v] = true
				merged = append(merged, v)
			}
		}
	}
	fp.ForDynamic(len(merged), workers, mergeGrain, func(i int) {
		v := merged[i]
		s := r[v]
		for k := range e.stripes {
			s += e.stripes[k].buf[v]
			e.stripes[k].buf[v] = 0
		}
		r[v] = s
	})

	// Session 3: self-update. Every frontier vertex commits the residual it
	// propagated: the estimate gains the α share, the residual loses what
	// was sent. A frontier vertex untouched by session 2 ends at exactly 0.
	fp.ForDynamic(F, workers, mergeGrain, func(i int) {
		u := frontier[i]
		ru := taken[i]
		p[u] += float64(alpha * ru)
		r[u] -= ru
	})

	// Session 4: frontier generation from the touched set. The merged list
	// was collected in stripe-then-first-touch order, which depends only on
	// the round's inputs, so the next frontier needs no sorting to be
	// deterministic.
	next := e.getBuf()
	for _, v := range merged {
		e.marked[v] = false
		if cond(r[v]) {
			next = append(next, v)
		}
	}
	for k := range e.stripes {
		e.stripes[k].touched = e.stripes[k].touched[:0]
	}
	counters.AddEnqueues(int64(len(next)))

	e.merged = merged[:0]
	e.putBuf(frontier)
	return next
}
