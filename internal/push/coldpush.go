package push

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"dynppr/internal/graph"
)

// ColdPushResult is the outcome of a one-shot local push on a frozen
// snapshot. It is sparse: a push costs — and its answer holds — what it
// touched, not the graph.
type ColdPushResult struct {
	// Vertices lists, strictly ascending, the vertices the answer carries:
	// every vertex with a nonzero estimate or, when the residuals were asked
	// for (ColdPushBounds.KeepResiduals), every vertex the push touched.
	Vertices []graph.VertexID
	// Estimates[i] approximates π_v(s) for v = Vertices[i]: the probability
	// that an α-terminating walk from v stops at the pushed source s — the
	// same contribution vector (Equation 2 of the paper) the live engines
	// maintain for tracked sources. Entries are nonnegative; a vertex not
	// listed has estimate exactly 0.
	Estimates []float64
	// Residuals[i] is the unpushed probability mass parked at Vertices[i];
	// nil unless ColdPushBounds.KeepResiduals. All residuals are nonnegative
	// (the push starts from a unit residual at the source and only ever
	// splits it) and a vertex not listed has residual exactly 0.
	Residuals []float64
	// MaxResidual is the largest residual left anywhere — the per-vertex
	// error bound. The invariant π_v(s) = P(v) + Σ_u R(u)·π_v(u) holds
	// exactly throughout the push, and Σ_u π_v(u) ≤ 1 (a walk stops at most
	// once), so |π_v(s) − P(v)| ≤ MaxResidual for every v. It is ≤ the
	// configured ε unless Capped.
	MaxResidual float64
	// Pushes counts vertex pushes performed.
	Pushes int64
	// Capped reports that the push stopped at maxPushes with work left; the
	// result is still sound, just with a larger MaxResidual.
	Capped bool
	// BudgetExhausted reports that a latency budget (ColdPushBounds.Budget)
	// limited the work. The result is still sound under MaxResidual; it just
	// was not refined past the level the budget paid for.
	BudgetExhausted bool
}

// SparseValue looks v up in a sparse vector — ascending ids with parallel
// values — and returns 0 when it is absent.
func SparseValue(ids []graph.VertexID, vals []float64, v graph.VertexID) float64 {
	if i, ok := slices.BinarySearch(ids, v); ok {
		return vals[i]
	}
	return 0
}

// ColdPushBounds bound a single cold push (ColdPushBounded).
type ColdPushBounds struct {
	// MaxPushes bounds the total vertex pushes across all refinement levels;
	// <= 0 means unbounded.
	MaxPushes int64
	// Budget is the wall-clock budget for the push. <= 0 disables the
	// adaptive ladder: the push runs exactly like ColdPushCSR.
	//
	// When set, the push first drains the frontier at the configured
	// cfg.Epsilon — that first level is never time-truncated, so a budgeted
	// push can only ever emit answers the unbudgeted push could also emit —
	// and then keeps halving ε and re-draining while budget remains, down to
	// MinEpsilon. A level interrupted mid-drain (deadline or MaxPushes) is
	// rolled back to the last completed one, so every emitted answer is a
	// deterministic function of (graph, source, cfg, achieved level); only
	// which level is achieved depends on timing.
	Budget time.Duration
	// MinEpsilon is the floor of the adaptive ladder; the push never refines
	// past it no matter how much budget remains. <= 0 selects 1e-9.
	MinEpsilon float64
	// KeepResiduals makes the result carry the residual of every touched
	// vertex (the walk refinement reads them); otherwise only MaxResidual
	// survives.
	KeepResiduals bool
}

// budgetCheckStride is how many frontier iterations pass between deadline
// reads inside a budgeted level — frequent enough to bound overshoot, rare
// enough that time.Now stays invisible next to the push work itself.
const budgetCheckStride = 4096

// ColdPushCSR runs the paper's local push from a cold start on an immutable
// CSR snapshot: starting from a unit residual at source, it repeatedly moves
// α·R(u) into the estimate at u and spreads (1−α)·R(u)/dout(v) to each
// in-neighbor v of u, until every residual is ≤ cfg.Epsilon or maxPushes
// vertex pushes have been performed (maxPushes <= 0 means unbounded). The
// update rule is exactly the Sequential engine's, so the result approximates
// the same quantity a tracked source serves, with the per-vertex error bound
// documented on ColdPushResult.MaxResidual.
//
// Unlike State (which owns a mutable graph and maintains the invariant
// across edge updates), a cold push is a pure function of the snapshot: it
// never mutates anything and is safe to call concurrently on the same
// snapshot, which is what the on-demand query path needs. The FIFO frontier
// seeded with the source makes results deterministic for a given snapshot.
// Division is always by the out-degree of an in-neighbor, which is ≥ 1 by
// construction, so dangling vertices need no special case: one with no
// in-edges simply never accumulates residual (its exact value is α·1{v=s}).
func ColdPushCSR(c *graph.CSR, source graph.VertexID, cfg Config, maxPushes int64) (*ColdPushResult, error) {
	return ColdPushBounded(c.View(), source, cfg, ColdPushBounds{MaxPushes: maxPushes})
}

// ColdPushBounded is the cold push over a pinned view — the bare base
// segment of a compacted graph, or base plus delta overlays right after a
// batch — under explicit bounds, in particular the adaptive-ε latency budget
// documented on ColdPushBounds.Budget. Results on logically equal graphs are
// bit-identical however the edges are split between base and overlays:
// adjacency order is preserved across segments, so the FIFO visits neighbors
// identically and every float64 sum associates identically.
//
// The push is local in cost as well as in effect: it runs over pooled scratch
// that is dense in the vertex count but reset in O(touched) afterwards, so a
// query allocates only its sparse answer.
func ColdPushBounded(view *graph.View, source graph.VertexID, cfg Config, b ColdPushBounds) (*ColdPushResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n := view.NumVertices(); source < 0 || int(source) >= n {
		return nil, fmt.Errorf("push: source %d outside snapshot vertex range [0,%d)", source, n)
	}
	sc := coldScratchPool.Get().(*coldScratch)
	res := sc.push(view, source, cfg, b)
	coldScratchPool.Put(sc) // not deferred: a scratch a panic left dirty must not be reused
	return res, nil
}

var coldScratchPool = sync.Pool{New: func() any { return new(coldScratch) }}

// coldCell is one vertex's push state: residual, estimate and the vertex's
// out-degree, looked up when residual first arrives and kept beside the
// residual it divides so that relaxing an edge touches one cell and nothing
// else. A zero outDeg marks a cell no edge has relaxed yet (a vertex reached
// as an in-neighbor has an out-edge).
type coldCell struct{ r, p, outDeg float64 }

// coldScratch is the reusable working set of the cold-push kernel. Between
// queries every cell is zero and the lists are empty; a query dirties only
// the cells named in touched and push() zeroes exactly those before it
// returns, so reuse costs O(touched), not O(n).
type coldScratch struct {
	cells []coldCell
	// touched names, once each, every vertex whose cell may be nonzero, in
	// first-touch order (ascending after a ladder level sorted it).
	touched []graph.VertexID
	// queue[head:] is the FIFO frontier. Within a level a vertex is queued
	// exactly while its residual exceeds the level's ε (it enters when an
	// update carries it across ε and leaves when it is pushed to zero), so
	// no membership bitmap is needed.
	queue []graph.VertexID
	head  int
	// saved is the rollback image of the last completed ladder level,
	// parallel to touched[:len(saved)].
	saved       []coldCell
	savedPushes int64
	ids         []graph.VertexID // sort buffer for the answer's vertex list
}

// push runs one bounded cold push on scratch sc. The caller has validated
// cfg and source.
func (sc *coldScratch) push(view *graph.View, source graph.VertexID, cfg Config, b ColdPushBounds) *ColdPushResult {
	if n := view.NumVertices(); len(sc.cells) < n {
		// The old cells are all zero, so growing is a fresh allocation; the
		// slack keeps a graph that grows a vertex at a time from paying it
		// per query.
		sc.cells = make([]coldCell, n+n/8)
	}
	var deadline time.Time
	if b.Budget > 0 {
		deadline = time.Now().Add(b.Budget)
	}
	res := &ColdPushResult{}
	sc.cells[source] = coldCell{r: 1, outDeg: float64(view.OutDegree(source))}
	sc.touched = append(sc.touched, source)
	sc.queue = append(sc.queue, source)

	// Level 0: the configured ε, bounded by MaxPushes only. The deadline is
	// deliberately not consulted, so the coarse answer is never a
	// timing-dependent intermediate state (see ColdPushBounds.Budget).
	sc.drain(view, res, cfg.Alpha, cfg.Epsilon, b.MaxPushes, time.Time{})

	if b.Budget > 0 && !res.Capped {
		for eps := range b.ladder(cfg.Epsilon) {
			if time.Now().After(deadline) {
				res.BudgetExhausted = true
				break
			}
			sc.beginLevel(res, eps)
			sc.drain(view, res, cfg.Alpha, eps, b.MaxPushes, deadline)
			if res.Capped {
				// Interrupted mid-level: the emitted answer is the last
				// completed level, not the partial drain.
				sc.rollback(res)
				res.Capped = false
				break
			}
		}
	}
	sc.finish(res, b.KeepResiduals)
	return res
}

// drain is the frontier kernel: it pushes the queue dry at threshold eps. It
// stops early when the cumulative push count reaches maxPushes (res.Capped)
// or, when deadline is nonzero, once the deadline passes (res.Capped and
// res.BudgetExhausted; checked every budgetCheckStride iterations). The
// view is consulted once per push (the in-neighbor slice) and once per first
// touch (the out-degree, cached in the cell), never per edge.
func (sc *coldScratch) drain(view *graph.View, res *ColdPushResult, alpha, eps float64, maxPushes int64, deadline time.Time) {
	cells := sc.cells
	sinceCheck := 0
	for sc.head < len(sc.queue) {
		if maxPushes > 0 && res.Pushes >= maxPushes {
			res.Capped = true
			break
		}
		if !deadline.IsZero() {
			if sinceCheck++; sinceCheck >= budgetCheckStride {
				sinceCheck = 0
				if time.Now().After(deadline) {
					res.Capped = true
					res.BudgetExhausted = true
					break
				}
			}
		}
		u := sc.queue[sc.head]
		sc.head++
		ru := cells[u].r
		if ru <= eps {
			continue
		}
		res.Pushes++
		cells[u].p += alpha * ru
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

// ladder yields the ε levels below the configured start, halving down to
// MinEpsilon (inclusive within a halving).
func (b ColdPushBounds) ladder(start float64) func(func(float64) bool) {
	minEps := b.MinEpsilon
	if minEps <= 0 {
		minEps = 1e-9
	}
	return func(yield func(float64) bool) {
		for eps := start / 2; eps >= minEps; eps /= 2 {
			if !yield(eps) {
				return
			}
		}
	}
}

// beginLevel opens a ladder level at threshold eps: it snapshots the
// completed level for rollback and rebuilds the frontier from every vertex
// whose residual exceeds eps, in ascending vertex order (deterministic).
func (sc *coldScratch) beginLevel(res *ColdPushResult, eps float64) {
	slices.Sort(sc.touched)
	sc.saved, sc.savedPushes = sc.saved[:0], res.Pushes
	for _, v := range sc.touched {
		c := sc.cells[v]
		sc.saved = append(sc.saved, c)
		if c.r > eps {
			sc.queue = append(sc.queue, v)
		}
	}
}

// rollback restores the level beginLevel snapshotted. Vertices first touched
// since then go back to zero (and stay listed, which is harmless).
func (sc *coldScratch) rollback(res *ColdPushResult) {
	for i, c := range sc.saved {
		sc.cells[sc.touched[i]] = c
	}
	for _, v := range sc.touched[len(sc.saved):] {
		sc.cells[v] = coldCell{}
	}
	res.Pushes = sc.savedPushes
}

// finish extracts the sparse answer and the residual bound from the touched
// cells and returns the scratch to its all-zero state.
func (sc *coldScratch) finish(res *ColdPushResult, keepResiduals bool) {
	ids := sc.ids[:0]
	for _, v := range sc.touched {
		c := sc.cells[v]
		if c.r > res.MaxResidual {
			res.MaxResidual = c.r
		}
		if keepResiduals || c.p != 0 {
			ids = append(ids, v)
		}
	}
	slices.Sort(ids)
	res.Vertices = make([]graph.VertexID, len(ids))
	copy(res.Vertices, ids)
	res.Estimates = make([]float64, len(ids))
	if keepResiduals {
		res.Residuals = make([]float64, len(ids))
	}
	for i, v := range ids {
		res.Estimates[i] = sc.cells[v].p
		if keepResiduals {
			res.Residuals[i] = sc.cells[v].r
		}
	}
	for _, v := range sc.touched {
		sc.cells[v] = coldCell{}
	}
	sc.touched, sc.ids = sc.touched[:0], ids
}
