package graph

import (
	"maps"
	"slices"
)

// viewOverlay is one vertex's frozen delta segments, indexed by direction.
// An overlaid direction always holds a non-nil (possibly empty) list; nil
// means the direction reads the base.
type viewOverlay [2][]VertexID

// idOverlay pairs an overlaid vertex with its segments, for the merge.
type idOverlay struct {
	id  VertexID
	seg viewOverlay
}

// View is a frozen, immutable view of the layered graph state: the shared
// base segment plus the delta segments present when the view was taken.
// Building one costs O(#overlaid vertices) — proportional to what recent
// batches touched, not to graph size — which is what lets the on-demand
// query path stop materializing a full CSR per graph generation. A View is
// safe for concurrent readers and stays valid (and logically unchanged)
// across later graph mutations and compactions: mutations clone a frozen
// segment before editing it, and compaction only swaps segments the view
// does not reference.
type View struct {
	base *CSR
	ov   map[VertexID]viewOverlay // nil when the graph was fully compacted
	n, m int

	epoch      uint64
	deltaEdges int
}

// View captures the current graph state. It seals every live delta segment:
// a later insert or delete on one of them copies the segment instead of
// editing it in place, since either shifts elements inside the view's
// slice length.
func (g *Graph) View() *View {
	g.viewGen++
	v := &View{
		base:       g.base,
		n:          g.n,
		m:          g.m,
		epoch:      g.epoch,
		deltaEdges: g.deltaEdges,
	}
	if len(g.overlaid) > 0 {
		v.ov = make(map[VertexID]viewOverlay, len(g.overlaid))
		for _, u := range g.overlaid {
			v.ov[u] = viewOverlay{g.ov[dirOut][u], g.ov[dirIn][u]}
		}
	}
	return v
}

// View wraps the segment as a view with no deltas, so code written against
// a pinned *View (the cold push) also runs on a bare snapshot.
func (c *CSR) View() *View {
	return &View{base: c, n: c.n, m: c.NumEdges()}
}

// NumVertices returns the number of vertices in the view.
func (v *View) NumVertices() int { return v.n }

// DeltaEdges returns the number of delta-segment adjacency entries layered
// over the base — the touched-proportional cost of having built this view.
func (v *View) DeltaEdges() int { return v.deltaEdges }

// OutDegree returns the out-degree of u (0 for out-of-range ids).
func (v *View) OutDegree(u VertexID) int { return len(v.neighbors(dirOut, u)) }

// OutNeighbors returns the out-neighbors of u. The slice is immutable for
// the lifetime of the view.
func (v *View) OutNeighbors(u VertexID) []VertexID { return v.neighbors(dirOut, u) }

// InNeighbors returns the in-neighbors of u with the same contract as
// OutNeighbors.
func (v *View) InNeighbors(u VertexID) []VertexID { return v.neighbors(dirIn, u) }

// neighbors returns u's list in direction d: its frozen overlay when it has
// one, else its base row.
func (v *View) neighbors(d int, u VertexID) []VertexID {
	if u < 0 || int(u) >= v.n {
		return nil
	}
	if v.ov != nil {
		if s := v.ov[u][d]; s != nil {
			return s
		}
	}
	if int(u) < v.base.n {
		return v.base.row(d, u)
	}
	return nil
}

// CSR materializes the view into a flat CSR by the run-copy merge, one
// mergeRows per direction over the overlaid ids sorted once. It reads only
// the frozen base and overlay segments, so it is the off-pipeline half of a
// background compaction as well as the body of Graph.Snapshot.
func (v *View) CSR() *CSR {
	ids := slices.Sorted(maps.Keys(v.ov))
	ovs := make([]idOverlay, len(ids))
	for i, u := range ids {
		ovs[i] = idOverlay{u, v.ov[u]}
	}
	c := &CSR{n: v.n}
	for d := range c.dir {
		c.dir[d] = mergeRows(v.base, d, v.n, v.m, ovs)
	}
	return c
}

// Snapshot builds a CSR copy of the current graph state: the CSR of a fresh
// View, so it seals the live delta segments as View does. Every list is
// sorted, so a snapshot holds exactly the live graph's lists and is
// bit-compatible with it for any float summation.
func (g *Graph) Snapshot() *CSR { return g.View().CSR() }
