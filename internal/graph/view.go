package graph

// viewOverlay is one vertex's frozen delta segments, indexed by direction.
// An overlaid direction always holds a non-nil (possibly empty) list; nil
// means the direction reads the base.
type viewOverlay [2][]VertexID

// View is a frozen, immutable view of the layered graph state for readers:
// the shared base segment plus a lookup map of the delta segments present
// when the view was taken. Building one walks the overlay registry in
// O(#overlaid + n/4096) — proportional to what recent batches touched, not
// to graph size — which is what lets the on-demand query path stop
// materializing a full CSR per graph version. A View is safe for concurrent
// readers and stays valid (and logically unchanged) across later graph
// mutations and compactions: mutations clone a frozen segment before
// editing it, and compaction only swaps segments the view does not
// reference. It records the graph's Version at the freeze, so holders can
// tell whether it is still current.
type View struct {
	base *CSR
	ov   map[VertexID]viewOverlay // nil when the graph was fully compacted
	n    int

	version    uint64
	deltaEdges int
}

// View captures the current graph state. It seals every live delta segment:
// a later insert or delete on one of them copies the segment instead of
// editing it in place, since either shifts elements inside the view's
// slice length.
func (g *Graph) View() *View {
	g.viewGen++
	v := &View{base: g.base, n: g.n, version: g.version, deltaEdges: g.deltaEdges}
	if k := g.OverlaidVertices(); k > 0 {
		v.ov = make(map[VertexID]viewOverlay, k)
		for u := range g.overlaid.All() {
			v.ov[u] = viewOverlay{g.ov[dirOut][u], g.ov[dirIn][u]}
		}
	}
	return v
}

// View wraps the segment as a view with no deltas, so code written against
// a pinned *View (the cold push) also runs on a bare snapshot.
func (c *CSR) View() *View {
	return &View{base: c, n: c.n}
}

// NumVertices returns the number of vertices in the view.
func (v *View) NumVertices() int { return v.n }

// Version returns the graph's Version when the view was taken.
func (v *View) Version() uint64 { return v.version }

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
