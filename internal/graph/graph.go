// Package graph implements the dynamic directed graph substrate the local
// update scheme runs on. Storage is LSM-style: an immutable CSR base segment
// holds the bulk of the adjacency, and per-vertex mutable delta segments
// (overlays) absorb edge insertions and deletions. Reads fall through to the
// base for untouched vertices, so the hottest loops in the system — push
// frontier scans, cold queries — run over dense sequentially-scannable arrays
// instead of pointer-chasing per-vertex slices.
//
// Out-degrees do not go through the layers: they live in one dense array,
// one int32 per vertex slot, that construction fills from the base offsets
// and every mutation moves by ±1. The push divides by dout(v) once per edge
// it relaxes, so a degree lookup is one load; the overlays hold only the
// lists, and compaction, which never changes logical content, leaves the
// array alone. Reading the degree through the layers (an overlay slice
// header, then two base offsets) took 41 % of the sequential push's CPU on
// the benchmark's write-stream workload; with the array and the bitmap-free
// push kernel together, BenchmarkSequentialTrackedPush in internal/push went
// from ≈ 45 to ≈ 26 ns per propagation.
//
// A delta segment is a fully materialized adjacency list for one vertex and
// direction: the first mutation of a vertex copies its base list into the
// overlay (copy-on-first-touch), and subsequent mutations edit the overlay in
// place. Every list — base or overlay, out or in — is sorted by neighbor id:
// an insert or delete binary-searches its position and shifts the tail. The
// order is therefore canonical, a function of the edge set alone, and so is
// the floating-point summation order of every push it fixes: bits depend on
// which edges a graph holds, never on the order in which they arrived.
// Compaction (see compact.go) merges the overlays into a fresh base by
// copying exactly the logical adjacency — runs of base rows between the
// overlaid vertices, and each overlay row — so it never perturbs order.
//
// The out lists are the graph's only record of its edges: there is no
// membership index, and every in list is the transpose of the out lists
// (every mutation edits both, and CheckConsistency verifies it against a
// transpose of the out lists). HasEdge is one binary search of
// the out list, which is also how AddEdge refuses a duplicate and RemoveEdge
// a missing edge before either touches any state.
//
// Both directions are one structure: the delta segments, their
// copy-on-write generations and a CSR's offset and target arrays are each
// indexed by direction (dirOut, dirIn), so every layer operation — reading a
// base row, materializing or cloning a segment, pruning, merging — is
// written once for both. Only Graph's public per-direction accessors are
// spelled out twice, so that each inlines into the push loops unchanged.
//
// The overlaid vertices are registered in a VertexSet. View (see view.go)
// freezes their segments into a lookup map for readers, and a Compaction
// (see compact.go) into a list in id order, the one merge input; both walk
// the registry in O(#overlaid + n/4096). Version counts the logical changes
// — effective inserts and deletes, growth — and nothing else moves it.
//
// Vertices are identified by dense non-negative int32 ids. The graph grows
// automatically when an edge mentions a vertex id beyond the current size,
// matching the paper's dynamic model where "an edge insertion may introduce
// new vertices".
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// VertexID identifies a vertex. IDs are dense and non-negative.
type VertexID = int32

// Edge is a directed edge u -> v.
type Edge struct {
	U, V VertexID
}

// Adjacency directions: the index of a delta segment, its generation and a
// CSR's rows.
const (
	dirOut = 0
	dirIn  = 1
)

// ErrEdgeNotFound is returned by RemoveEdge when the edge does not exist.
var ErrEdgeNotFound = errors.New("graph: edge not found")

// ErrNegativeVertex is returned when an edge mentions a negative vertex id.
var ErrNegativeVertex = errors.New("graph: negative vertex id")

// Graph is a dynamic directed multigraph-free graph: at most one edge u->v is
// stored per ordered pair. It is not safe for concurrent mutation; the
// engines mutate it only between push rounds (the push itself only reads).
//
// Internally the graph is an immutable CSR base plus per-vertex overlay
// segments. An overlay slot of nil means "read the base"; a non-nil (possibly
// empty) overlay is the complete current adjacency of that vertex/direction
// and shadows the base entirely. Overlay generations implement copy-on-write
// against freezes: an overlay last written before the most recent View() or
// BeginCompaction() call is sealed, and the next insert or delete clones it
// instead of shifting in place (either may shift elements a freeze still
// reads).
type Graph struct {
	base *CSR // immutable base segment; never nil
	n    int  // vertex slots (>= base.n: vertices can be added after a compaction)
	m    int  // number of live edges

	outDeg []int32 // out-degree per vertex slot, kept by every mutation

	ov  [2][][]VertexID // delta segment per direction and vertex: nil = fall through to base
	gen [2][]uint64     // viewGen at last write of the segment (copy-on-write seal)

	overlaid   VertexSet // the vertices with a non-nil overlay
	deltaEdges int       // total adjacency entries held in overlays (both directions)

	version uint64 // bumped by every logical change (see Version)
	epoch   uint64 // bumped on every base swap; compactions pin it
	viewGen uint64 // bumped by every freeze; drives overlay sealing
}

// New returns an empty graph pre-sized for n vertices.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return fromBase(newCSR([]int32{0}, nil), n)
}

// FromCSR wraps an immutable CSR as the base segment of a new graph with no
// deltas. The CSR is retained as-is (zero copy): this is the checkpoint-image
// recovery constructor, and since the adjacency lists are the graph's only
// record of its edges, recovery costs O(1) beyond decoding the image itself.
func FromCSR(c *CSR) *Graph {
	return fromBase(c, c.n)
}

func fromBase(c *CSR, n int) *Graph {
	if n < c.n {
		n = c.n
	}
	outDeg := make([]int32, n)
	off := c.dir[dirOut].offsets
	for u := 0; u < c.n; u++ {
		outDeg[u] = off[u+1] - off[u]
	}
	return newGraph(c, n, c.NumEdges(), outDeg)
}

// newGraph returns a graph over base with empty delta segments.
func newGraph(base *CSR, n, m int, outDeg []int32) *Graph {
	g := &Graph{base: base, n: n, m: m, outDeg: outDeg}
	g.overlaid.Grow(n)
	for d := range g.ov {
		g.ov[d] = make([][]VertexID, n)
		g.gen[d] = make([]uint64, n)
	}
	return g
}

// FromEdges builds a graph from a list of edges, ignoring duplicates (and,
// like AddEdge, edges naming negative vertices). The result is fully
// compacted: the edges land directly in the CSR base with every row sorted,
// so any order of the same edges — or an AddEdge loop over them — yields
// identical lists.
func FromEdges(edges []Edge) *Graph {
	valid := func(e Edge) bool { return e.U >= 0 && e.V >= 0 }
	n := 0
	for _, e := range edges {
		if valid(e) {
			n = max(n, int(e.U)+1, int(e.V)+1)
		}
	}
	// Bucket the targets by source with a counting sort (offsets[u] is row
	// u's fill cursor, as in newCSR), then sort each row and squeeze out its
	// duplicates, compacting the rows leftwards.
	offsets := make([]int32, n+1)
	for _, e := range edges {
		if valid(e) {
			offsets[e.U+1]++
		}
	}
	for u := 1; u <= n; u++ {
		offsets[u] += offsets[u-1]
	}
	targets := make([]VertexID, offsets[n])
	for _, e := range edges {
		if valid(e) {
			targets[offsets[e.U]] = e.V
			offsets[e.U]++
		}
	}
	copy(offsets[1:], offsets[:n])
	offsets[0] = 0
	m, start := int32(0), int32(0)
	for u := 1; u <= n; u++ {
		row := targets[start:offsets[u]]
		start = offsets[u]
		slices.Sort(row)
		m += int32(copy(targets[m:], slices.Compact(row)))
		offsets[u] = m
	}
	if int(m) < len(targets) {
		targets = slices.Clone(targets[:m])
	}
	return fromBase(newCSR(offsets, targets), n)
}

// NumVertices returns the number of vertex slots (max id seen + 1, or the
// initial size if larger).
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of directed edges currently in the graph.
func (g *Graph) NumEdges() int { return g.m }

// Version counts the logical changes of the graph: it moves on every
// effective AddEdge or RemoveEdge and on every growth of the vertex range,
// and on nothing else. Equal versions of one graph mean equal content.
func (g *Graph) Version() uint64 { return g.version }

// Epoch identifies the current base segment; it advances on every compaction
// (base swap). Logical graph content is unchanged across an epoch bump.
func (g *Graph) Epoch() uint64 { return g.epoch }

// DeltaEdges returns the total number of adjacency entries held in mutable
// delta segments (counting both directions). It is the size metric
// compaction policies trigger on, and the quantity a touched-proportional
// snapshot copies.
func (g *Graph) DeltaEdges() int { return g.deltaEdges }

// OverlaidVertices returns the number of vertices with at least one delta
// segment: the registry's member count, O(1).
func (g *Graph) OverlaidVertices() int { return g.overlaid.Len() }

// BaseEdges returns the number of edges stored in the immutable base segment
// (live edges may be fewer — deletions shadow the base — or more, when
// insertions have not been compacted yet).
func (g *Graph) BaseEdges() int { return g.base.NumEdges() }

// EnsureVertex grows the graph so that id is a valid vertex.
func (g *Graph) EnsureVertex(id VertexID) {
	need := int(id) + 1
	if need <= g.n {
		return
	}
	g.outDeg = grow(g.outDeg, need)
	g.overlaid.Grow(need)
	for d := range g.ov {
		g.ov[d] = grow(g.ov[d], need)
		g.gen[d] = grow(g.gen[d], need)
	}
	g.n = need
	g.version++
}

// grow extends s to length n, zero-filling any reused capacity.
func grow[T any](s []T, n int) []T {
	if n <= cap(s) {
		old := len(s)
		s = s[:n]
		clear(s[old:])
		return s
	}
	ns := make([]T, n, max(2*cap(s), n))
	copy(ns, s)
	return ns
}

// HasEdge reports whether edge u->v exists. The out lists are the edge set:
// it binary-searches u's sorted out list, so it costs O(log dout(u)) and
// never grows the graph.
func (g *Graph) HasEdge(u, v VertexID) bool {
	_, found := slices.BinarySearch(g.OutNeighbors(u), v)
	return found
}

// overlaidAt reports whether u has a delta segment in either direction.
func (g *Graph) overlaidAt(u VertexID) bool {
	return g.ov[dirOut][u] != nil || g.ov[dirIn][u] != nil
}

// writable returns u's delta segment in direction d, safe to edit in place.
// On first touch it materializes the segment by copying the base row; when a
// View or compaction frozen since the last write still aliases the segment,
// it clones it.
func (g *Graph) writable(d int, u VertexID) []VertexID {
	ov := g.ov[d][u]
	switch {
	case ov == nil:
		base := g.baseRow(d, u)
		ov = append(make([]VertexID, 0, len(base)+4), base...)
		g.overlaid.Add(u)
		g.deltaEdges += len(ov)
	case g.gen[d][u] < g.viewGen:
		ov = append(make([]VertexID, 0, len(ov)+4), ov...)
	default:
		return ov
	}
	g.ov[d][u] = ov
	g.gen[d][u] = g.viewGen
	return ov
}

// AddEdge inserts the directed edge u->v. Inserting an edge that already
// exists is a no-op and returns false with a nil error; a successful insert
// returns true. Negative ids return ErrNegativeVertex.
func (g *Graph) AddEdge(u, v VertexID) (bool, error) {
	if u < 0 || v < 0 {
		return false, fmt.Errorf("%w: (%d,%d)", ErrNegativeVertex, u, v)
	}
	if g.HasEdge(u, v) {
		return false, nil
	}
	g.EnsureVertex(u)
	g.EnsureVertex(v)
	// A sorted insert shifts elements inside a sealed View's slice length,
	// so it must go through the copy-on-write path.
	g.ov[dirOut][u] = insertSorted(g.writable(dirOut, u), v)
	g.ov[dirIn][v] = insertSorted(g.writable(dirIn, v), u)
	g.outDeg[u]++
	g.deltaEdges += 2
	g.m++
	g.version++
	return true, nil
}

// RemoveEdge deletes the directed edge u->v, keeping both lists sorted.
// Deleting a missing edge returns ErrEdgeNotFound.
func (g *Graph) RemoveEdge(u, v VertexID) error {
	if !g.HasEdge(u, v) {
		return fmt.Errorf("%w: (%d,%d)", ErrEdgeNotFound, u, v)
	}
	g.ov[dirOut][u] = deleteSorted(g.writable(dirOut, u), v)
	g.ov[dirIn][v] = deleteSorted(g.writable(dirIn, v), u)
	g.outDeg[u]--
	g.deltaEdges -= 2
	g.m--
	g.version++
	return nil
}

// insertSorted inserts x at its position in the sorted, writable list s.
func insertSorted(s []VertexID, x VertexID) []VertexID {
	i, _ := slices.BinarySearch(s, x)
	return slices.Insert(s, i, x)
}

// deleteSorted removes x, which must be present, from the sorted, writable
// list s.
func deleteSorted(s []VertexID, x VertexID) []VertexID {
	i, _ := slices.BinarySearch(s, x)
	return slices.Delete(s, i, i+1)
}

// OutDegree returns the out-degree of u (0 for out-of-range ids). It reads
// the dense degree array every mutation maintains, never the layered lists:
// one bounds check and one load, which is what the push's per-edge division
// by dout(v) costs.
func (g *Graph) OutDegree(u VertexID) int {
	if u < 0 || int(u) >= g.n {
		return 0
	}
	return int(g.outDeg[u])
}

// InDegree returns the in-degree of v (0 for out-of-range ids).
func (g *Graph) InDegree(v VertexID) int {
	if v < 0 || int(v) >= g.n {
		return 0
	}
	if ov := g.ov[dirIn][v]; ov != nil {
		return len(ov)
	}
	if int(v) < g.base.n {
		return g.base.InDegree(v)
	}
	return 0
}

// OutNeighbors returns the out-neighbor slice of u. The slice is owned by the
// graph; callers must not mutate it and must not hold it across mutations
// (a mutation or compaction may redirect the vertex to a different segment).
func (g *Graph) OutNeighbors(u VertexID) []VertexID {
	if u < 0 || int(u) >= g.n {
		return nil
	}
	if ov := g.ov[dirOut][u]; ov != nil {
		return ov
	}
	return g.baseRow(dirOut, u)
}

// InNeighbors returns the in-neighbor slice of v with the same aliasing rules
// as OutNeighbors.
func (g *Graph) InNeighbors(v VertexID) []VertexID {
	if v < 0 || int(v) >= g.n {
		return nil
	}
	if ov := g.ov[dirIn][v]; ov != nil {
		return ov
	}
	return g.baseRow(dirIn, v)
}

// baseRow returns u's base-segment list in direction d (nil when u postdates
// the base).
func (g *Graph) baseRow(d int, u VertexID) []VertexID {
	if int(u) < g.base.n {
		return g.base.row(d, u)
	}
	return nil
}

// Edges returns all edges, sorted by source and then by target.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.OutNeighbors(VertexID(u)) {
			out = append(out, Edge{VertexID(u), v})
		}
	}
	return out
}

// Clone returns a deep copy of the graph. The immutable base segment is
// shared (it is never written); delta segments are copied, found by a walk
// of the registry, O(#overlaid + n/4096) beside the per-vertex arrays.
func (g *Graph) Clone() *Graph {
	c := newGraph(g.base, g.n, g.m, slices.Clone(g.outDeg))
	c.deltaEdges, c.version, c.epoch = g.deltaEdges, g.version, g.epoch
	for u := range g.overlaid.All() {
		c.overlaid.Add(u)
		for d := range g.ov {
			if s := g.ov[d][u]; s != nil {
				c.ov[d][u] = append(make([]VertexID, 0, len(s)), s...)
			}
		}
	}
	return c
}

// TopDegreeVertices returns up to k vertex ids sorted by decreasing
// out-degree (ties broken by ascending id). It backs the paper's "top-10 /
// top-1K / top-1M out-degree" source selection (Figure 7).
func (g *Graph) TopDegreeVertices(k int) []VertexID {
	n := g.n
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	ids := make([]VertexID, n)
	for i := range ids {
		ids[i] = VertexID(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		da, db := g.OutDegree(ids[a]), g.OutDegree(ids[b])
		if da != db {
			return da > db
		}
		return ids[a] < ids[b]
	})
	return ids[:k]
}

// CheckConsistency validates the internal invariants of the graph: every out
// list and every in list strictly increases within [0, n), every in list is
// the transpose of the out lists (compared against the counting-sort
// transpose of Snapshot's out rows, O(n+m); the compaction that Snapshot
// freezes seals the live segments), m counts the out entries, the degree array
// holds every out list's length, and the delta-segment accounting
// (deltaEdges, overlaid registry) matches the segments actually present in
// either direction. It is used by tests and by failure injection tooling.
func (g *Graph) CheckConsistency() error {
	if len(g.ov[dirOut]) != g.n || len(g.ov[dirIn]) != g.n || len(g.outDeg) != g.n {
		return fmt.Errorf("graph: %d vertices but %d out / %d in overlay slots and %d degrees", g.n, len(g.ov[dirOut]), len(g.ov[dirIn]), len(g.outDeg))
	}
	count := 0
	for u := VertexID(0); int(u) < g.n; u++ {
		out := g.OutNeighbors(u)
		if !sortedRow(out, g.n) || !sortedRow(g.InNeighbors(u), g.n) {
			return fmt.Errorf("graph: a list of vertex %d does not strictly increase within [0,%d)", u, g.n)
		}
		if int(g.outDeg[u]) != len(out) {
			return fmt.Errorf("graph: degree array says dout(%d)=%d, its out list holds %d", u, g.outDeg[u], len(out))
		}
		count += len(out)
	}
	if count != g.m {
		return fmt.Errorf("graph: edge count mismatch: m=%d, out lists hold %d", g.m, count)
	}
	tr := newCSR(g.Snapshot().RawOut())
	for v := VertexID(0); int(v) < g.n; v++ {
		if !slices.Equal(g.InNeighbors(v), tr.InNeighbors(v)) {
			return fmt.Errorf("graph: in list of %d is not the transpose of the out lists", v)
		}
	}
	delta := 0
	for u := VertexID(0); int(u) < g.n; u++ {
		if reg := g.overlaid.Has(u); reg != g.overlaidAt(u) {
			return fmt.Errorf("graph: vertex %d registered as overlaid %v, has a delta segment %v", u, reg, !reg)
		}
		delta += len(g.ov[dirOut][u]) + len(g.ov[dirIn][u])
	}
	if delta != g.deltaEdges {
		return fmt.Errorf("graph: delta accounting mismatch: counted %d, recorded %d", delta, g.deltaEdges)
	}
	return nil
}
