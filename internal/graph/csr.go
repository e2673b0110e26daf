package graph

import (
	"fmt"
	"slices"
)

// CSR is an immutable compressed-sparse-row segment of a graph, in both
// directions. It is the base segment of the LSM-style store (every Graph
// reads through to one), the frozen view the vertex-centric baseline and the
// power-iteration oracle operate on, and — its out arrays serialized
// verbatim — the checkpoint image format that makes recovery a bulk load
// instead of an edge replay. Every row is sorted by neighbor id, so the out
// rows alone determine the segment and the in rows are their transpose.
// Two constructors keep it so: newCSR derives the in rows from out rows
// (edge lists, checkpoint images), and mergeCSR copies both directions from
// a base plus overlay rows that are already each other's transpose
// (compaction). Accessors assume ids in [0, NumVertices()); Graph and View
// perform the bounds checks before delegating.
type CSR struct {
	n int

	outOffsets []int32
	outTargets []VertexID

	inOffsets []int32
	inTargets []VertexID
}

// newCSR builds a CSR from out rows alone. It takes ownership of out rows
// that each strictly increase within [0, n) and derives the in rows by a
// counting-sort transpose: sources are scanned in ascending order, so every
// in row comes out sorted too. O(n+m).
func newCSR(outOffsets []int32, outTargets []VertexID) *CSR {
	n := len(outOffsets) - 1
	inOffsets := make([]int32, n+1)
	for _, v := range outTargets {
		inOffsets[v+1]++
	}
	for v := 1; v <= n; v++ {
		inOffsets[v] += inOffsets[v-1]
	}
	// inOffsets[v] is row v's fill cursor; once filled it has advanced to
	// the start of row v+1, so shifting the array right restores the offsets.
	inTargets := make([]VertexID, len(outTargets))
	for u := 0; u < n; u++ {
		for _, v := range outTargets[outOffsets[u]:outOffsets[u+1]] {
			inTargets[inOffsets[v]] = VertexID(u)
			inOffsets[v]++
		}
	}
	copy(inOffsets[1:], inOffsets[:n])
	inOffsets[0] = 0
	return &CSR{
		n:          n,
		outOffsets: outOffsets,
		outTargets: outTargets,
		inOffsets:  inOffsets,
		inTargets:  inTargets,
	}
}

// overlayRow is one vertex's delta segment in one direction: the complete
// adjacency list that shadows the vertex's base row.
type overlayRow struct {
	id  VertexID
	row []VertexID
}

// mergeCSR builds the CSR of a layered state: base rows for every vertex
// without an overlay, the overlay row for every vertex with one, and empty
// rows for vertices in [base.n, n) that have none. out and in must each be
// sorted by id; m is the edge count (the target count of either direction).
// Both overlay directions are the exact lists the graph serves, so the
// in rows are copied like the out rows, never transposed.
func mergeCSR(base *CSR, n, m int, out, in []overlayRow) *CSR {
	c := &CSR{n: n}
	c.outOffsets, c.outTargets = mergeRows(base.n, base.outOffsets, base.outTargets, n, m, out)
	c.inOffsets, c.inTargets = mergeRows(base.n, base.inOffsets, base.inTargets, n, m, in)
	return c
}

// mergeRows is one direction of mergeCSR. It walks the overlaid ids in
// ascending order: each stretch of base rows between two of them is copied
// with one append and its offsets shifted by how far the stretch moved, and
// each overlaid id contributes its overlay row. O(n) offsets plus one
// sequential copy of m targets.
func mergeRows(baseN int, baseOff []int32, baseTgt []VertexID, n, m int, rows []overlayRow) ([]int32, []VertexID) {
	offsets := make([]int32, n+1)
	targets := make([]VertexID, 0, m)
	next := 0 // first vertex whose row is not yet emitted
	// runTo emits the rows of vertices [next, hi), none of them overlaid.
	runTo := func(hi int) {
		if b := min(hi, baseN); next < b {
			lo := baseOff[next]
			shift := int32(len(targets)) - lo
			targets = append(targets, baseTgt[lo:baseOff[b]]...)
			for u := next; u < b; u++ {
				offsets[u+1] = baseOff[u+1] + shift
			}
			next = b
		}
		for end := int32(len(targets)); next < hi; next++ {
			offsets[next+1] = end // past the base: no edges
		}
	}
	for _, r := range rows {
		runTo(int(r.id))
		targets = append(targets, r.row...)
		offsets[r.id+1] = int32(len(targets))
		next = int(r.id) + 1
	}
	runTo(n)
	return offsets, targets
}

// Snapshot builds a CSR copy of the current graph state, merging the base
// segment with any delta segments. Every list is sorted, so a snapshot holds
// exactly the live graph's lists and is bit-compatible with it for any float
// summation.
func (g *Graph) Snapshot() *CSR {
	ids := slices.Sorted(slices.Values(g.overlaid))
	out := make([]overlayRow, 0, len(ids))
	in := make([]overlayRow, 0, len(ids))
	for _, u := range ids {
		if s := g.outOv[u]; s != nil {
			out = append(out, overlayRow{u, s})
		}
		if s := g.inOv[u]; s != nil {
			in = append(in, overlayRow{u, s})
		}
	}
	return mergeCSR(g.base, g.n, g.m, out, in)
}

// NewCSR assembles a CSR from raw out-direction offset/target arrays, taking
// ownership of the slices. It is the strict entry point for deserialized
// checkpoint images: the structure is validated — n+1 offsets, monotone,
// starting at 0 and ending at the target count, and every row strictly
// increasing within [0, n), which also rules out a row naming a target twice
// — before the in rows are derived, so a corrupted image yields an error,
// never a CSR that can panic a reader later or break the graph's edge-set
// invariant. (Byte-level integrity is the checkpoint CRC's job; this guards
// structure.)
func NewCSR(outOffsets []int32, outTargets []VertexID) (*CSR, error) {
	if len(outOffsets) == 0 {
		return nil, fmt.Errorf("graph: csr has no offsets")
	}
	n := len(outOffsets) - 1
	if outOffsets[0] != 0 {
		return nil, fmt.Errorf("graph: csr offsets start at %d, want 0", outOffsets[0])
	}
	for u := 0; u < n; u++ {
		if outOffsets[u+1] < outOffsets[u] {
			return nil, fmt.Errorf("graph: csr offsets decrease at vertex %d", u)
		}
	}
	if int(outOffsets[n]) != len(outTargets) {
		return nil, fmt.Errorf("graph: csr offsets end at %d, want %d", outOffsets[n], len(outTargets))
	}
	for u := 0; u < n; u++ {
		if !sortedRow(outTargets[outOffsets[u]:outOffsets[u+1]], n) {
			return nil, fmt.Errorf("graph: csr row %d does not strictly increase within [0,%d)", u, n)
		}
	}
	return newCSR(outOffsets, outTargets), nil
}

// sortedRow reports whether row strictly increases within [0, n).
func sortedRow(row []VertexID, n int) bool {
	prev := VertexID(-1)
	for _, v := range row {
		if v <= prev {
			return false
		}
		prev = v
	}
	return int(prev) < n
}

// RawOut exposes the underlying out-direction arrays (offsets has n+1
// entries, targets one per edge). Read-only: the arrays are the live segment.
func (c *CSR) RawOut() (offsets []int32, targets []VertexID) {
	return c.outOffsets, c.outTargets
}

// NumVertices returns the number of vertices in the snapshot.
func (c *CSR) NumVertices() int { return c.n }

// NumEdges returns the number of directed edges in the snapshot.
func (c *CSR) NumEdges() int { return len(c.outTargets) }

// InDegree returns the in-degree of v in the snapshot.
func (c *CSR) InDegree(v VertexID) int {
	return int(c.inOffsets[v+1] - c.inOffsets[v])
}

// OutNeighbors returns the out-neighbors of u (read-only view).
func (c *CSR) OutNeighbors(u VertexID) []VertexID {
	return c.outTargets[c.outOffsets[u]:c.outOffsets[u+1]]
}

// InNeighbors returns the in-neighbors of v (read-only view).
func (c *CSR) InNeighbors(v VertexID) []VertexID {
	return c.inTargets[c.inOffsets[v]:c.inOffsets[v+1]]
}
