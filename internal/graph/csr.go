package graph

import "fmt"

// CSR is an immutable compressed-sparse-row segment of a graph, in both
// directions. It is the base segment of the LSM-style store (every Graph
// reads through to one), the frozen view the vertex-centric baseline and the
// power-iteration oracle operate on, and — its out arrays serialized
// verbatim — the checkpoint image format that makes recovery a bulk load
// instead of an edge replay. Every row is sorted by neighbor id, so the out
// rows alone determine the segment: the in rows are their transpose, derived
// by the one constructor, newCSR. Accessors assume ids in [0, NumVertices());
// Graph and View perform the bounds checks before delegating.
type CSR struct {
	n int

	outOffsets []int32
	outTargets []VertexID

	inOffsets []int32
	inTargets []VertexID
}

// newCSR is the one CSR constructor. It takes ownership of out rows that
// each strictly increase within [0, n) and derives the in rows by a
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

// Snapshot builds a CSR copy of the current graph state, merging the base
// segment with any delta segments. Every list is sorted, so a snapshot holds
// exactly the live graph's lists and is bit-compatible with it for any float
// summation.
func (g *Graph) Snapshot() *CSR {
	return buildCSR(g.n, g.OutNeighbors)
}

// buildCSR materializes a CSR from an out-adjacency accessor.
func buildCSR(n int, out func(VertexID) []VertexID) *CSR {
	offsets := make([]int32, n+1)
	for u := 0; u < n; u++ {
		offsets[u+1] = offsets[u] + int32(len(out(VertexID(u))))
	}
	targets := make([]VertexID, 0, offsets[n])
	for u := 0; u < n; u++ {
		targets = append(targets, out(VertexID(u))...)
	}
	return newCSR(offsets, targets)
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

// OutDegree returns the out-degree of u in the snapshot.
func (c *CSR) OutDegree(u VertexID) int {
	return int(c.outOffsets[u+1] - c.outOffsets[u])
}

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
