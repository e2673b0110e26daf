// Package push implements the paper's local update scheme for dynamic
// Personalized PageRank: the per-vertex estimate/residual state, invariant
// restoration against edge updates (Algorithm 1), the sequential local push
// (Algorithm 2), the parallel local push (Algorithm 3) and its optimized
// form with eager propagation and local duplicate detection (Algorithm 4).
//
// The quantity maintained is the contribution (reverse) PPR vector towards a
// fixed source vertex s: the estimate P(v) approximates the probability that
// a random walk from v, terminating with probability α at each step, stops at
// s. The invariant kept for every vertex v (Equation 2 of the paper) is
//
//	P(v) + α·R(v) = α·1{v=s} + (1−α)/dout(v) · Σ_{x ∈ Nout(v)} P(x)
//
// and the scheme guarantees |P(v) − π(v)| ≤ ε whenever |R(v)| ≤ ε for all v.
package push

import (
	"fmt"
	"math"
	"slices"

	"dynppr/internal/graph"
	"dynppr/internal/metrics"
	"dynppr/internal/stream"
)

// Config holds the two parameters of the local update scheme.
type Config struct {
	// Alpha is the teleport/termination probability (paper default 0.15).
	Alpha float64
	// Epsilon is the error threshold: after a push converges every residual
	// has absolute value at most Epsilon, so every estimate is within Epsilon
	// of the true value.
	Epsilon float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Alpha <= 0 || c.Alpha >= 1 {
		return fmt.Errorf("push: alpha must be in (0,1), got %v", c.Alpha)
	}
	if c.Epsilon <= 0 {
		return fmt.Errorf("push: epsilon must be positive, got %v", c.Epsilon)
	}
	return nil
}

// State is the estimate/residual pair (P, R) for one source vertex over a
// dynamic graph, together with the scheme parameters and work counters.
//
// A freshly constructed State carries the whole probability mass as residual
// at the source (R(s)=1, P≡0), which is the standard cold-start of the local
// update scheme; running any Engine to convergence then yields an
// ε-approximate vector for the current graph.
//
// P and R are plain dense vectors indexed by vertex id. The goroutine
// driving an engine owns them and reads and writes them plainly; an engine
// that fans out hands each goroutine distinct vertices for plain access, and
// goroutines that may touch the same element of R at once reach it only
// through the fp atomics, with fp.For's barrier between the two kinds of
// access. P is private to the state even when it is published:
// SnapshotSlot.Publish hands the vector itself to readers and gives the state
// the slot's retired copy back, brought current. Beside P and R a state
// holds only its estimate-dirty set, n/8 + n/512 bytes, which Publish walks
// and resets in O(members + n/4096).
type State struct {
	g      *graph.Graph
	source graph.VertexID
	cfg    Config

	p []float64
	r []float64

	// Estimate-dirty tracking: the set of vertices whose estimate changed
	// since the last publication. Engines mark the vertices they push (the
	// only writers of P); SnapshotSlot.Publish walks the set in place to
	// copy and index only what changed, then resets it. dirtyAll poisons the
	// set ("assume everything changed"): a state starts poisoned, so one
	// that is never published records nothing, and engines that cannot
	// track cheaply poison it. Both fields are owned by the goroutine
	// driving the engine.
	dirty    graph.VertexSet
	dirtyAll bool

	// Counters accumulates the work performed by invariant restoration and by
	// the engines running over this state. Never nil.
	Counters *metrics.Counters
}

// NewState creates the state for the given source on g. The source vertex is
// created in the graph if it does not exist yet.
func NewState(g *graph.Graph, source graph.VertexID, cfg Config) (*State, error) {
	n := max(g.NumVertices(), int(source)+1)
	st, err := newState(g, source, cfg, make([]float64, n), make([]float64, n))
	if err != nil {
		return nil, err
	}
	g.EnsureVertex(source)
	st.r[source] = 1
	return st, nil
}

// newState is the one State constructor: it validates cfg and source and
// returns source's state on g over the vectors p and r, which it adopts.
func newState(g *graph.Graph, source graph.VertexID, cfg Config, p, r []float64) (*State, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if source < 0 {
		return nil, fmt.Errorf("push: source must be non-negative, got %d", source)
	}
	return &State{
		g:        g,
		source:   source,
		cfg:      cfg,
		p:        p,
		r:        r,
		dirtyAll: true,
		Counters: &metrics.Counters{},
	}, nil
}

// Graph returns the dynamic graph the state is tracking.
func (st *State) Graph() *graph.Graph { return st.g }

// Source returns the source vertex.
func (st *State) Source() graph.VertexID { return st.source }

// Alpha returns the teleport probability.
func (st *State) Alpha() float64 { return st.cfg.Alpha }

// Epsilon returns the error threshold.
func (st *State) Epsilon() float64 { return st.cfg.Epsilon }

// NumVertices returns the number of vertices covered by the state vectors.
func (st *State) NumVertices() int { return len(st.p) }

// Estimate returns the current PPR estimate of v (0 for unknown vertices).
func (st *State) Estimate(v graph.VertexID) float64 {
	if int(v) >= len(st.p) || v < 0 {
		return 0
	}
	return st.p[v]
}

// Residual returns the current residual of v (0 for unknown vertices).
func (st *State) Residual(v graph.VertexID) float64 {
	if int(v) >= len(st.r) || v < 0 {
		return 0
	}
	return st.r[v]
}

// Estimates returns a copy of the estimate vector.
func (st *State) Estimates() []float64 { return slices.Clone(st.p) }

// Residuals returns a copy of the residual vector.
func (st *State) Residuals() []float64 { return slices.Clone(st.r) }

// MaxResidual returns the L∞ norm of the residual vector. A NaN residual
// never compares greater, so it does not poison the norm.
func (st *State) MaxResidual() float64 {
	var m float64
	for _, x := range st.r {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// sync grows the state vectors to cover every vertex of the graph. It must be
// called after graph mutations that may have introduced vertices.
func (st *State) sync() {
	n := st.g.NumVertices()
	if n > len(st.p) {
		st.p = grow(st.p, n)
		st.r = grow(st.r, n)
	}
	st.dirty.Grow(n)
}

// grow returns v extended with zeros to length n, in a new array of exactly
// n elements.
func grow(v []float64, n int) []float64 {
	grown := make([]float64, n)
	copy(grown, v)
	return grown
}

// markEstimateDirty records that P(v) changed since the last publication.
// Callers must own the state (engine coordinator or pipeline goroutine).
func (st *State) markEstimateDirty(v int32) {
	if !st.dirtyAll {
		st.dirty.Add(v)
	}
}

// MarkEstimatesDirty records that the estimates of vs changed since the last
// publication. Engines call it with each round's frontier (the exact set of
// vertices whose estimate a round updates) from the coordinating goroutine.
func (st *State) MarkEstimatesDirty(vs []int32) {
	for _, v := range vs {
		st.markEstimateDirty(v)
	}
}

// MarkAllEstimatesDirty poisons the dirty set: the next publication assumes
// any estimate may have changed, forcing a full copy and a Top-K rebuild. It
// exists for engines that update estimates concurrently without a frontier
// hook (the vertex-centric baseline).
func (st *State) MarkAllEstimatesDirty() { st.dirtyAll = true }

// resetDirty empties the dirty set, sized to cover P, and lifts its
// poisoning once a publication has consumed it.
func (st *State) resetDirty() {
	st.dirty.Reset()
	st.dirty.Grow(len(st.p))
	st.dirtyAll = false
}

// AppendTopK appends the k highest-estimate vertices (descending, ties by
// ascending vertex id) to dst, reading the live estimate vector directly —
// no O(n) copy. The caller must own the state (not be racing an engine).
func (st *State) AppendTopK(dst []VertexScore, k int) []VertexScore {
	return AppendTopKFunc(dst, len(st.p), func(v int) float64 { return st.p[v] }, k)
}

// ApplyInsert adds edge u->v to the graph and restores the invariant
// (Algorithm 1, Insert). It reports whether the graph changed (false when the
// edge already existed, in which case the invariant needs no repair).
func (st *State) ApplyInsert(u, v graph.VertexID) (bool, error) {
	added, err := st.g.AddEdge(u, v)
	if err != nil || !added {
		return false, err
	}
	st.sync()
	st.restore(u, v, +1)
	return true, nil
}

// ApplyDelete removes edge u->v from the graph and restores the invariant
// (Algorithm 1, Delete). It reports whether the graph changed (false when the
// edge did not exist).
func (st *State) ApplyDelete(u, v graph.VertexID) (bool, error) {
	if err := st.g.RemoveEdge(u, v); err != nil {
		return false, nil //nolint:nilerr // missing edge is a skipped update, not an error
	}
	st.sync()
	st.restore(u, v, -1)
	return true, nil
}

// Restore is the first half of the paper's batch procedure (Algorithm 1)
// for every state maintained over g: it applies b to g one update at a time
// and, after each effective update, restores Equation 2 in every state, so
// the restore reads the out-degree of the intermediate graph. Duplicate
// inserts, deletes of missing edges and unknown ops change nothing and are
// skipped. It appends each effective update's source endpoint to touched —
// the candidates of the push that completes the batch — and returns it.
func Restore(g *graph.Graph, states []*State, b stream.Batch, touched []graph.VertexID) []graph.VertexID {
	for _, u := range b {
		var op float64
		switch u.Op {
		case stream.Insert:
			if added, err := g.AddEdge(u.U, u.V); err != nil || !added {
				continue
			}
			op = +1
		case stream.Delete:
			if g.RemoveEdge(u.U, u.V) != nil {
				continue
			}
			op = -1
		default:
			continue
		}
		touched = append(touched, u.U)
		for _, st := range states {
			st.sync()
			st.restore(u.U, u.V, op)
		}
	}
	return touched
}

// restore repairs Equation 2 at u after the graph has already been mutated.
// op is +1 for insertion of u->v and -1 for deletion. Only R(u) changes; the
// new out-degree dout(u) (post-mutation) appears in the denominator, matching
// Algorithm 1 of the paper.
func (st *State) restore(u, v graph.VertexID, op float64) {
	alpha := st.cfg.Alpha
	d := float64(st.g.OutDegree(u))
	st.Counters.AddRestoreOps(1)

	indicator := 0.0
	if u == st.source {
		indicator = alpha
	}
	if d == 0 {
		// Deleting the last out-edge: the invariant reduces to
		// P(u) + α·R(u) = α·1{u=s}.
		st.r[u] = (indicator - st.p[u]) / alpha
		return
	}
	delta := (float64((1-alpha)*st.p[v]) - st.p[u] - float64(alpha*st.r[u]) + indicator) / (alpha * d)
	st.r[u] += float64(op * delta)
}

// InvariantError returns the maximum absolute violation of Equation 2 over
// all vertices. A correctly maintained state has an error within floating
// point rounding of zero regardless of how large the residuals are. Vertices
// the state's vectors do not cover yet (the graph grew since the state's
// last update) read as zero, as Estimate and Residual read them.
func (st *State) InvariantError() float64 {
	alpha := st.cfg.Alpha
	var worst float64
	n := st.g.NumVertices()
	for v := 0; v < n; v++ {
		rhs := 0.0
		if graph.VertexID(v) == st.source {
			rhs = alpha
		}
		out := st.g.OutNeighbors(graph.VertexID(v))
		if len(out) > 0 {
			var sum float64
			for _, x := range out {
				sum += st.Estimate(x)
			}
			rhs += (1 - alpha) * sum / float64(len(out))
		}
		lhs := st.Estimate(graph.VertexID(v)) + float64(alpha*st.Residual(graph.VertexID(v)))
		diff := lhs - rhs
		if diff < 0 {
			diff = -diff
		}
		if diff > worst {
			worst = diff
		}
	}
	return worst
}

// Converged reports whether every residual is within the error threshold.
func (st *State) Converged() bool { return st.MaxResidual() <= st.cfg.Epsilon }

// scratch is the frontier scratch an engine value keeps between runs: the
// buffer activeFrom fills (the sequential push's FIFO) and its candidate
// de-dup marks. A worker pushes one state at a time, so the scratch costs one
// copy per engine, however many states the engine pushes.
type scratch struct {
	buf  []int32
	seen graph.VertexSet
}

// activeFrom filters the candidate vertices down to those whose residual
// currently satisfies the push condition of the given phase. A nil candidate
// list means "scan every vertex". Duplicate candidates are removed.
//
// The returned slice is backed by sc.buf: it is valid until the next
// activeFrom call on sc, and callers may append to it freely (a growth simply
// re-anchors the scratch on the next call).
func (st *State) activeFrom(candidates []graph.VertexID, phase phase, sc *scratch) []int32 {
	eps := st.cfg.Epsilon
	out := sc.buf[:0]
	if candidates == nil {
		for v, rv := range st.r {
			if phase.cond(rv, eps) {
				out = append(out, int32(v))
			}
		}
		sc.buf = out
		return out
	}
	n := len(st.r)
	sc.seen.Grow(n)
	for _, v := range candidates {
		if int(v) < n && v >= 0 && sc.seen.Add(v) && phase.cond(st.r[v], eps) {
			out = append(out, int32(v))
		}
	}
	sc.seen.Reset()
	sc.buf = out
	return out
}

// Vectors returns the estimate and residual vectors themselves, not copies,
// for engines living outside this package: the deterministic engine of
// internal/parallel and the vertex-centric baseline push over them with the
// access rules of State — plain access to distinct vertices per goroutine,
// fp atomics where goroutines may meet, a barrier between the two — and the
// checkpoint writer encodes them while the pipeline it runs on keeps every
// engine out. The slices are valid until the next graph mutation grows the
// state.
func (st *State) Vectors() (p, r []float64) { return st.p, st.r }

// ActiveVertices returns the vertices whose residual currently violates the
// threshold for the positive (sign > 0) or negative (sign < 0) phase. It is
// exported for out-of-package engines; candidates follow the same contract as
// Engine.Run.
func (st *State) ActiveVertices(candidates []graph.VertexID, sign int) []graph.VertexID {
	ph := phasePositive
	if sign < 0 {
		ph = phaseNegative
	}
	raw := st.activeFrom(candidates, ph, &scratch{})
	out := make([]graph.VertexID, len(raw))
	for i, v := range raw {
		out[i] = graph.VertexID(v)
	}
	return out
}

// phase distinguishes the positive-residual and negative-residual passes of
// the local push.
type phase int8

const (
	phasePositive phase = iota
	phaseNegative
)

// cond is the pushCond predicate of the paper: r > ε in the positive phase,
// r < −ε in the negative phase.
func (p phase) cond(r, eps float64) bool {
	if p == phasePositive {
		return r > eps
	}
	return r < -eps
}

// Engine pushes a state to convergence. Implementations are the sequential
// push (Algorithm 2), the parallel push variants (Algorithms 3 and 4) and the
// vertex-centric baseline. An engine value may keep scratch between runs, so
// it runs one state at a time; a multi-source maintainer holds one per
// worker.
type Engine interface {
	// Name identifies the engine in experiment output.
	Name() string
	// Run performs local pushes until every residual is within ε.
	// candidates, if non-nil, lists every vertex whose residual may exceed ε
	// (for incremental maintenance this is the set of update endpoints);
	// nil requests a full scan.
	Run(st *State, candidates []graph.VertexID)
}
