package graph

import (
	"cmp"
	"slices"
)

// viewOverlay is one vertex's frozen delta segments. hasOut/hasIn
// distinguish "direction overlaid (possibly with zero edges)" from
// "direction reads the base".
type viewOverlay struct {
	out, in       []VertexID
	hasOut, hasIn bool
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
			var o viewOverlay
			if s := g.outOv[u]; s != nil {
				o.out, o.hasOut = s, true
			}
			if s := g.inOv[u]; s != nil {
				o.in, o.hasIn = s, true
			}
			v.ov[u] = o
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
func (v *View) OutDegree(u VertexID) int { return len(v.OutNeighbors(u)) }

// OutNeighbors returns the out-neighbors of u. The slice is immutable for
// the lifetime of the view.
func (v *View) OutNeighbors(u VertexID) []VertexID {
	if u < 0 || int(u) >= v.n {
		return nil
	}
	if v.ov != nil {
		if o, ok := v.ov[u]; ok && o.hasOut {
			return o.out
		}
	}
	if int(u) < v.base.n {
		return v.base.OutNeighbors(u)
	}
	return nil
}

// InNeighbors returns the in-neighbors of u with the same contract as
// OutNeighbors.
func (v *View) InNeighbors(u VertexID) []VertexID {
	if u < 0 || int(u) >= v.n {
		return nil
	}
	if v.ov != nil {
		if o, ok := v.ov[u]; ok && o.hasIn {
			return o.in
		}
	}
	if int(u) < v.base.n {
		return v.base.InNeighbors(u)
	}
	return nil
}

// CSR materializes the view into a flat CSR by the same run-copy merge as
// Graph.Snapshot. This is the off-pipeline half of a background compaction:
// it reads only the frozen base and overlay segments.
func (v *View) CSR() *CSR {
	out := make([]overlayRow, 0, len(v.ov))
	in := make([]overlayRow, 0, len(v.ov))
	for u, o := range v.ov {
		if o.hasOut {
			out = append(out, overlayRow{u, o.out})
		}
		if o.hasIn {
			in = append(in, overlayRow{u, o.in})
		}
	}
	byID := func(a, b overlayRow) int { return cmp.Compare(a.id, b.id) }
	slices.SortFunc(out, byID)
	slices.SortFunc(in, byID)
	return mergeCSR(v.base, v.n, v.m, out, in)
}
