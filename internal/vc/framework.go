// Package vc is a minimal Ligra-style vertex-centric graph processing
// framework — the "general graph processing system" baseline of the paper's
// evaluation. It offers the two primitives of Ligra (Shun & Blelloch):
//
//   - VertexMap: apply a function to every vertex of a subset.
//   - EdgeMap: apply a function to every in-edge of a subset's vertices,
//     gathering a new subset of vertices for which the function returned true,
//     with the classic sparse (frontier-driven) vs. dense (topology-driven)
//     representation switch.
//
// The PPR implementation on top of it (ppr.go) follows the bulk-synchronous
// vertex-centric style: it cannot apply eager propagation (there is no way to
// read a residual mid-superstep) nor local duplicate detection (frontier
// deduplication is the framework's job), which is exactly the limitation the
// paper attributes to Ligra's lower performance.
package vc

import (
	"dynppr/internal/fp"
	"dynppr/internal/graph"
)

// VertexSubset is a set of vertices, stored sparsely (id list) or densely
// (bitmap), mirroring Ligra's dual representation.
type VertexSubset struct {
	n       int
	sparse  []graph.VertexID
	dense   []bool
	isDense bool
}

// NewSparseSubset builds a subset from an explicit id list. Duplicate ids are
// kept (they are removed when the subset is densified or used by EdgeMap with
// deduplication).
func NewSparseSubset(n int, ids []graph.VertexID) *VertexSubset {
	return &VertexSubset{n: n, sparse: append([]graph.VertexID(nil), ids...)}
}

// Size returns the number of member vertices (duplicates in a sparse subset
// count once).
func (s *VertexSubset) Size() int {
	if s.isDense {
		n := 0
		for _, b := range s.dense {
			if b {
				n++
			}
		}
		return n
	}
	seen := make(map[graph.VertexID]struct{}, len(s.sparse))
	for _, v := range s.sparse {
		seen[v] = struct{}{}
	}
	return len(seen)
}

// Members returns the member ids (deduplicated, unspecified order).
func (s *VertexSubset) Members() []graph.VertexID {
	if s.isDense {
		var out []graph.VertexID
		for v, b := range s.dense {
			if b {
				out = append(out, graph.VertexID(v))
			}
		}
		return out
	}
	seen := make(map[graph.VertexID]struct{}, len(s.sparse))
	out := make([]graph.VertexID, 0, len(s.sparse))
	for _, v := range s.sparse {
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

// Framework bundles a graph with the execution parameters of the primitives.
type Framework struct {
	g       *graph.Graph
	workers int
	// denseThreshold is the Ligra heuristic: switch EdgeMap to the dense
	// (scan all vertices) representation when the frontier plus its out-edges
	// exceed |E|/denseDivisor.
	denseDivisor int
}

// NewFramework wraps a dynamic graph. workers <= 0 selects GOMAXPROCS.
func NewFramework(g *graph.Graph, workers int) *Framework {
	if workers <= 0 {
		workers = fp.DefaultWorkers()
	}
	return &Framework{g: g, workers: workers, denseDivisor: 20}
}

// VertexMap applies fn to every member of the subset (in parallel) and
// returns the subset of members for which fn returned true.
func (f *Framework) VertexMap(s *VertexSubset, fn func(graph.VertexID) bool) *VertexSubset {
	members := s.Members()
	keep := make([]bool, len(members))
	fp.For(len(members), f.workers, func(i int) {
		keep[i] = fn(members[i])
	})
	var out []graph.VertexID
	for i, k := range keep {
		if k {
			out = append(out, members[i])
		}
	}
	return NewSparseSubset(f.g.NumVertices(), out)
}

// EdgeMap applies update(src, dst) to every in-edge (dst -> src is the edge
// direction used by pull-style algorithms; here we follow the PPR push and
// map over the in-neighbors of each frontier member): for every frontier
// vertex u and every in-neighbor v of u, update(u, v) is called. Vertices v
// for which update returned true AND cond(v) holds are gathered into the
// output frontier, deduplicated by the framework with an atomic bitmap — the
// generic synchronization the paper's local duplicate detection avoids.
func (f *Framework) EdgeMap(s *VertexSubset, update func(u, v graph.VertexID) bool, cond func(graph.VertexID) bool) *VertexSubset {
	members := s.Members()
	// Ligra representation switch: count frontier out-work.
	work := len(members)
	for _, u := range members {
		work += f.g.InDegree(u)
	}
	if f.g.NumEdges() > 0 && work > f.g.NumEdges()/f.denseDivisor {
		return f.edgeMapDense(members, update, cond)
	}
	return f.edgeMapSparse(members, update, cond)
}

func (f *Framework) edgeMapSparse(members []graph.VertexID, update func(u, v graph.VertexID) bool, cond func(graph.VertexID) bool) *VertexSubset {
	n := f.g.NumVertices()
	queue := fp.NewQueue(len(members) * 4)
	seen := fp.NewBitSet(n)
	fp.ForDynamic(len(members), f.workers, 8, func(i int) {
		u := members[i]
		for _, v := range f.g.InNeighbors(u) {
			if update(u, v) && cond(v) {
				if !seen.TestAndSet(int(v)) {
					queue.Enqueue(int32(v))
				}
			}
		}
	})
	ids := queue.Drain()
	out := make([]graph.VertexID, len(ids))
	for i, v := range ids {
		out[i] = graph.VertexID(v)
	}
	return NewSparseSubset(n, out)
}

func (f *Framework) edgeMapDense(members []graph.VertexID, update func(u, v graph.VertexID) bool, cond func(graph.VertexID) bool) *VertexSubset {
	n := f.g.NumVertices()
	inFrontier := make([]bool, n)
	for _, u := range members {
		inFrontier[u] = true
	}
	dense := make([]bool, n)
	// Dense direction: iterate over all vertices v and their out-neighbors u;
	// if u is in the frontier, apply the update for edge (u, v-in-neighbor).
	fp.For(n, f.workers, func(vi int) {
		v := graph.VertexID(vi)
		if !cond(v) {
			// cond is checked before applying updates in dense mode as in
			// Ligra; updates that would target v are still applied for
			// correctness of the PPR residuals, so we only skip the frontier
			// membership, not the update itself.
			for _, u := range f.g.OutNeighbors(v) {
				if int(u) < n && inFrontier[u] {
					update(u, v)
				}
			}
			return
		}
		added := false
		for _, u := range f.g.OutNeighbors(v) {
			if int(u) < n && inFrontier[u] {
				if update(u, v) {
					added = true
				}
			}
		}
		if added && cond(v) {
			dense[vi] = true
		}
	})
	return &VertexSubset{n: n, dense: dense, isDense: true}
}
