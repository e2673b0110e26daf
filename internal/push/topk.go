package push

import (
	"slices"
	"sort"
	"sync/atomic"

	"dynppr/internal/graph"
)

// VertexScore pairs a vertex with its PPR estimate. It is the element type of
// every Top-K ranking in the system: the heap-based selection over a dense
// vector, the incrementally maintained index of a SnapshotSlot, and the
// rankings the serving layer returns (dynppr.VertexScore aliases this type).
type VertexScore struct {
	Vertex graph.VertexID
	Score  float64
}

// scoreBetter is the total result order of every Top-K ranking: descending
// score, ties broken by ascending vertex id. Vertex ids are unique, so the
// order is strict — two distinct entries never compare equal, which is what
// lets the incremental index reason exactly about admission thresholds.
func scoreBetter(a, b VertexScore) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Vertex < b.Vertex
}

// AppendTopK ranks the estimate vector and appends the k largest entries to
// dst (descending, ties broken by ascending vertex id), returning the
// extended slice. Instead of sorting all n vertices it keeps a size-k
// min-heap of the best entries seen (O(n log k)) and only sorts those k at
// the end. Callers that reuse dst across calls perform no allocations once
// it has grown to k entries.
func AppendTopK(dst []VertexScore, est []float64, k int) []VertexScore {
	return AppendTopKFunc(dst, len(est), func(i int) float64 { return est[i] }, k)
}

// AppendTopKFunc is the shared size-k min-heap selection over any indexed
// float64 sequence; it backs both the dense-slice and the live-state Top-K.
func AppendTopKFunc(dst []VertexScore, n int, get func(int) float64, k int) []VertexScore {
	if k > n {
		k = n
	}
	if k <= 0 {
		return dst
	}
	base := len(dst)
	// heap[0] is the worst of the current top k.
	heap := dst[base:base]
	siftDown := func(i int) {
		for {
			left := 2*i + 1
			if left >= len(heap) {
				return
			}
			child := left
			if right := left + 1; right < len(heap) && scoreBetter(heap[left], heap[right]) {
				child = right
			}
			if !scoreBetter(heap[i], heap[child]) {
				return
			}
			heap[i], heap[child] = heap[child], heap[i]
			i = child
		}
	}
	for v := 0; v < n; v++ {
		entry := VertexScore{Vertex: graph.VertexID(v), Score: get(v)}
		if len(heap) < k {
			heap = append(heap, entry)
			for i := len(heap) - 1; i > 0; {
				parent := (i - 1) / 2
				if !scoreBetter(heap[parent], heap[i]) {
					break
				}
				heap[i], heap[parent] = heap[parent], heap[i]
				i = parent
			}
			continue
		}
		if !scoreBetter(entry, heap[0]) {
			continue
		}
		heap[0] = entry
		siftDown(0)
	}
	sort.Slice(heap, func(i, j int) bool { return scoreBetter(heap[i], heap[j]) })
	// heap may have been reallocated away from dst's backing array while
	// growing; append re-anchors it (a self-copy no-op when it was not).
	return append(dst[:base], heap...)
}

// AppendTopKSparse is AppendTopK over a sparse nonnegative vector of n
// entries — ascending ids with parallel values, every unlisted vertex 0 —
// and appends exactly the ranking AppendTopK produces on the dense
// expansion: the positive entries by score, then, when fewer than k are
// positive, zero-score vertices in ascending id order.
func AppendTopKSparse(dst []VertexScore, n int, ids []graph.VertexID, vals []float64, k int) []VertexScore {
	if k > n {
		k = n
	}
	if k <= 0 {
		return dst
	}
	base := len(dst)
	// The selection ranks positions; ids ascend, so its tie-break by position
	// is the tie-break by vertex id.
	dst = AppendTopKFunc(dst, len(ids), func(i int) float64 { return vals[i] }, k)
	positive := base
	for ; positive < len(dst) && dst[positive].Score > 0; positive++ {
		dst[positive].Vertex = ids[dst[positive].Vertex]
	}
	dst = dst[:positive]
	for v := graph.VertexID(0); len(dst)-base < k; v++ {
		if SparseValue(ids, vals, v) <= 0 {
			dst = append(dst, VertexScore{Vertex: v})
		}
	}
	return dst
}

// topIndex is the write-side master of the incrementally maintained Top-K
// index: the exact top ranking of one source's estimate vector, kept sorted
// best-to-worst under scoreBetter. It serves the first cap entries and keeps
// up to 2×cap, the slack that absorbs decays. Its exactness invariant is
// that every vertex outside the index ranks strictly below the last entry
// (the admission threshold), so every prefix of the index is the exact
// ranking of that length. Estimate changes arriving through the dirty set
// preserve the invariant cheaply:
//
//   - an improvement of an indexed entry just repositions it;
//   - a new or improved outside vertex is admitted iff it beats the
//     threshold (evicting the worst entry once the index is 2×cap deep,
//     which by the invariant still ranks above every outside vertex);
//   - a worsened indexed entry is repositioned; if it sinks to the bottom,
//     some unindexed vertex may now out-rank it, so it is dropped — every
//     remaining entry ranked at or above the old threshold, so it still
//     outranks the whole outside set, the dropped vertex included.
//
// Drops make the index shallower. Only when fewer than min(cap, n) entries
// remain — it can no longer serve the published prefix — is it rebuilt from
// a full scan of the estimate vector, as it is when marked stale: on cold
// start, on growth it cannot absorb and on a poisoned dirty set. Either way
// the rebuild runs before the publication completes, so readers always see
// an exact ranking.
type topIndex struct {
	cap     int
	entries []VertexScore
	// n is the estimate-vector length the index covers; growth beyond it is
	// only safe when the threshold already dominates the zero estimates new
	// vertices start with.
	n     int
	stale bool
	// member[v] reports whether vertex v currently has an entry, making the
	// common dirty-vertex case — not indexed, below threshold — O(1) instead
	// of an O(cap) scan. Maintained by rebuild/update alongside entries.
	member []bool
	// rebuilds counts full-scan rebuilds (cold start, growth, a poisoned
	// dirty set and an index drained below its served depth), for
	// observability and tests. Atomic because Stats readers race the
	// publishing goroutine.
	rebuilds atomic.Uint64
}

// served returns the published prefix: the first min(cap, len) entries.
func (ti *topIndex) served() []VertexScore {
	return ti.entries[:min(ti.cap, len(ti.entries))]
}

// rank returns the sorted position entry would occupy in the index.
func (ti *topIndex) rank(entry VertexScore) int {
	return sort.Search(len(ti.entries), func(i int) bool {
		return scoreBetter(entry, ti.entries[i])
	})
}

// find returns the position of vertex v in the index, or -1. The index is
// small (≤ 2×cap entries), so a linear scan beats maintaining a side table.
func (ti *topIndex) find(v graph.VertexID) int {
	for i := range ti.entries {
		if ti.entries[i].Vertex == v {
			return i
		}
	}
	return -1
}

// rebuild recomputes the exact top-2×cap ranking from a full scan of the
// state's estimate vector.
func (ti *topIndex) rebuild(st *State) {
	n := st.NumVertices()
	for _, e := range ti.entries {
		ti.member[e.Vertex] = false
	}
	ti.entries = st.AppendTopK(ti.entries[:0], min(2*ti.cap, n))
	for _, e := range ti.entries {
		ti.member[e.Vertex] = true
	}
	ti.n = n
	ti.stale = false
	ti.rebuilds.Add(1)
}

// noteGrowth absorbs an estimate-vector growth from ti.n to n vertices. New
// vertices start with estimate 0; if the threshold beats a zero score they
// rank below it, otherwise the index must be rebuilt to admit them. (An
// index too shallow for the grown vector is rebuilt by apply.)
func (ti *topIndex) noteGrowth(n int) {
	if len(ti.entries) == 0 || ti.entries[len(ti.entries)-1].Score <= 0 {
		ti.stale = true
	}
	ti.n = n
}

// update applies one changed estimate (vertex v now scores s), preserving
// the exactness invariant: by repositioning, admitting, evicting or
// dropping an entry.
func (ti *topIndex) update(v graph.VertexID, s float64) {
	entry := VertexScore{Vertex: v, Score: s}
	if ti.member[v] {
		i := ti.find(v)
		old := ti.entries[i]
		if entry == old {
			return
		}
		if scoreBetter(entry, old) {
			// Improvement: shift the displaced prefix down one slot.
			r := ti.rank(entry)
			copy(ti.entries[r+1:i+1], ti.entries[r:i])
			ti.entries[r] = entry
			return
		}
		// Worsening: reposition among the others. While the entry still
		// beats the worst *other* entry the outside is still dominated (it
		// ranked below the old threshold, which the new bottom entry equals
		// or beats). Once it becomes the bottom an unindexed vertex may
		// out-rank it, so it leaves the index — unless the index holds every
		// vertex, in which case there is no outside.
		r := ti.rank(entry) - 1 // rank among the others (entry itself still counted at i)
		copy(ti.entries[i:r], ti.entries[i+1:r+1])
		ti.entries[r] = entry
		if last := len(ti.entries) - 1; r == last && len(ti.entries) < ti.n {
			ti.entries = ti.entries[:last]
			ti.member[v] = false
		}
		return
	}
	// Outside vertex: admit iff it beats the threshold, evicting the bottom
	// entry when the index is at its full depth.
	last := len(ti.entries) - 1
	if last < 0 || !scoreBetter(entry, ti.entries[last]) {
		return
	}
	if len(ti.entries) == 2*ti.cap {
		ti.member[ti.entries[last].Vertex] = false
		ti.entries = ti.entries[:last]
	}
	r := ti.rank(entry)
	ti.entries = slices.Insert(ti.entries, r, entry)
	ti.member[v] = true
}

// apply folds one publication's drained dirty set into the index: the
// incremental path when the set is sparse and the index stayed exact, a full
// rebuild when it is stale or drained below the served depth. It must run
// after the engine has converged st (the estimates read here are the ones
// the snapshot publishes).
func (ti *topIndex) apply(st *State, dirty []int32, all bool) {
	n := st.NumVertices()
	if n != ti.n {
		if ti.n == 0 {
			ti.stale = true // cold start
			ti.n = n
		} else {
			ti.noteGrowth(n)
		}
	}
	if len(ti.member) < n {
		ti.member = append(ti.member, make([]bool, n-len(ti.member))...)
	}
	if all {
		ti.stale = true
	}
	if !ti.stale {
		for _, v := range dirty {
			ti.update(v, st.Estimate(v))
		}
	}
	if ti.stale || len(ti.entries) < min(ti.cap, n) {
		ti.rebuild(st)
	}
}
