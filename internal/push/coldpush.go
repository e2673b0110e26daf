package push

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"dynppr/internal/graph"
)

// ColdPushResult is the outcome of a one-shot local push on a frozen
// snapshot. It is sparse: a push costs — and its answer holds — what it
// touched, not the graph.
type ColdPushResult struct {
	// Vertices lists, strictly ascending, every vertex with a nonzero
	// estimate.
	Vertices []graph.VertexID
	// Estimates[i] approximates π_v(s) for v = Vertices[i]: the probability
	// that an α-terminating walk from v stops at the pushed source s — the
	// same contribution vector (Equation 2 of the paper) the live engines
	// maintain for tracked sources. Entries are nonnegative; a vertex not
	// listed has estimate exactly 0.
	Estimates []float64
	// MaxResidual is the largest residual left anywhere — the per-vertex
	// error bound. The invariant π_v(s) = P(v) + Σ_u R(u)·π_v(u) holds
	// exactly throughout the push, all residuals are nonnegative (the push
	// starts from a unit residual at the source and only ever splits it) and
	// Σ_u π_v(u) ≤ 1 (a walk stops at most once), so
	// |π_v(s) − P(v)| ≤ MaxResidual for every v. It is ≤ the configured ε
	// unless Capped.
	MaxResidual float64
	// Pushes counts vertex pushes performed.
	Pushes int64
	// Capped reports that the push stopped at maxPushes with work left; the
	// result is still sound, just with a larger MaxResidual.
	Capped bool
}

// SparseValue looks v up in a sparse vector — ascending ids with parallel
// values — and returns 0 when it is absent.
func SparseValue(ids []graph.VertexID, vals []float64, v graph.VertexID) float64 {
	if i, ok := slices.BinarySearch(ids, v); ok {
		return vals[i]
	}
	return 0
}

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
	return ColdPushBounded(c.View(), source, cfg, maxPushes)
}

// ColdPushBounded is ColdPushCSR over a pinned view — the bare base segment
// of a compacted graph, or base plus delta overlays right after a batch.
// Results on logically equal graphs are bit-identical however the edges are
// split between base and overlays, and whatever order they arrived in: every
// adjacency list is sorted by neighbor id, so the FIFO visits neighbors
// identically and every float64 sum associates identically.
//
// The push is local in cost as well as in effect: it runs over pooled scratch
// that is dense in the vertex count but read out and reset in
// O(touched + n/4096) afterwards, so a query allocates only its sparse answer.
func ColdPushBounded(view *graph.View, source graph.VertexID, cfg Config, maxPushes int64) (*ColdPushResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n := view.NumVertices(); source < 0 || int(source) >= n {
		return nil, fmt.Errorf("push: source %d outside snapshot vertex range [0,%d)", source, n)
	}
	sc := coldScratchPool.Get().(*coldScratch)
	res := sc.push(view, source, cfg, maxPushes)
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
// queries every cell and every bitmap word is zero and the queue is empty; a
// query dirties only the cells its bitmaps mark and push() zeroes exactly
// those before it returns, so reuse costs O(touched + n/4096), not O(n).
type coldScratch struct {
	cells []coldCell
	// seen is the touched set, one bit per cell: bit v marks a cell that may
	// be nonzero. sum is its index, one bit per seen word, so one sum word
	// covers 4096 vertices and a sweep skips untouched stretches whole.
	seen []uint64
	sum  []uint64
	// queue[head:] is the FIFO frontier. A vertex is queued exactly while its
	// residual exceeds ε (it enters when an update carries it across ε and
	// leaves when it is pushed to zero), so no membership bitmap is needed.
	queue []graph.VertexID
	head  int
}

// push runs one bounded cold push on scratch sc: seed the source, drain the
// frontier, extract the answer. The caller has validated cfg and source.
func (sc *coldScratch) push(view *graph.View, source graph.VertexID, cfg Config, maxPushes int64) *ColdPushResult {
	if n := view.NumVertices(); len(sc.cells) < n {
		// The old cells and bitmaps are all zero, so growing is a fresh
		// allocation; the slack keeps a graph that grows a vertex at a time
		// from paying it per query.
		slots := n + n/8
		sc.cells = make([]coldCell, slots)
		sc.seen = make([]uint64, (slots+63)/64)
		sc.sum = make([]uint64, (len(sc.seen)+63)/64)
	}
	res := &ColdPushResult{}
	sc.cells[source] = coldCell{r: 1, outDeg: float64(view.OutDegree(source))}
	sc.mark(source)
	sc.queue = append(sc.queue, source)
	sc.drain(view, res, cfg.Alpha, cfg.Epsilon, maxPushes)
	sc.finish(res)
	return res
}

// mark records v in the touched bitmaps.
func (sc *coldScratch) mark(v graph.VertexID) {
	sc.seen[v>>6] |= 1 << (v & 63)
	sc.sum[v>>12] |= 1 << (v >> 6 & 63)
}

// drain is the frontier kernel: it pushes the queue dry at threshold eps,
// stopping early (res.Capped) when the push count reaches maxPushes. The
// view is consulted once per push (the in-neighbor slice) and once per first
// touch (the out-degree, cached in the cell), never per edge.
func (sc *coldScratch) drain(view *graph.View, res *ColdPushResult, alpha, eps float64, maxPushes int64) {
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
				sc.mark(v)
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

// finish extracts the sparse answer and the residual bound by two sweeps of
// the touched bitmaps, sum word → seen word → cell, in ascending id order, so
// the answer comes out sorted with no sort. The first sweep takes the largest
// residual, zeroes every cell whose estimate is zero and narrows each seen
// word to the cells that remain, which it counts; the second fills the
// exact-size answer from those cells and zeroes them and every bitmap word it
// passes, returning the scratch to its all-zero state. Both cost
// O(touched + n/4096).
func (sc *coldScratch) finish(res *ColdPushResult) {
	cells, seen, sum := sc.cells, sc.seen, sc.sum
	maxR, nonzero := 0.0, 0
	for i, s := range sum {
		for ; s != 0; s &= s - 1 {
			wi := i<<6 | bits.TrailingZeros64(s)
			var keep uint64
			for w := seen[wi]; w != 0; w &= w - 1 {
				b := bits.TrailingZeros64(w)
				c := &cells[wi<<6|b]
				if c.r > maxR {
					maxR = c.r
				}
				if c.p != 0 {
					keep |= 1 << b
				} else {
					*c = coldCell{}
				}
			}
			seen[wi] = keep
			nonzero += bits.OnesCount64(keep)
		}
	}
	res.MaxResidual = maxR
	ids, ests := make([]graph.VertexID, nonzero), make([]float64, nonzero)
	k := 0
	for i, s := range sum {
		for ; s != 0; s &= s - 1 {
			wi := i<<6 | bits.TrailingZeros64(s)
			for w := seen[wi]; w != 0; w &= w - 1 {
				v := wi<<6 | bits.TrailingZeros64(w)
				ids[k], ests[k] = graph.VertexID(v), cells[v].p
				k++
				cells[v] = coldCell{}
			}
			seen[wi] = 0
		}
		sum[i] = 0
	}
	res.Vertices, res.Estimates = ids, ests
}
