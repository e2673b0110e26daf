package graph

import "fmt"

// CSR is an immutable compressed-sparse-row segment of a graph, in both
// directions. It is the base segment of the LSM-style store (every Graph
// reads through to one), the frozen view the vertex-centric baseline and the
// power-iteration oracle operate on, and — serialized verbatim — the
// checkpoint image format that makes recovery a bulk load instead of an edge
// replay. Accessors assume ids in [0, NumVertices()); Graph and View perform
// the bounds checks before delegating.
type CSR struct {
	n int

	outOffsets []int32
	outTargets []VertexID

	inOffsets []int32
	inTargets []VertexID
}

func emptyCSR() *CSR {
	return &CSR{outOffsets: []int32{0}, inOffsets: []int32{0}}
}

// Snapshot builds a CSR copy of the current graph state, merging the base
// segment with any delta segments. Per-vertex adjacency order is the logical
// order (overlay order for touched vertices, base order otherwise), so a
// snapshot is bit-compatible with the live graph for any float summation.
func (g *Graph) Snapshot() *CSR {
	return buildCSR(g.n, g.OutNeighbors, g.InNeighbors)
}

// buildCSR materializes a CSR from any pair of adjacency accessors.
func buildCSR(n int, out, in func(VertexID) []VertexID) *CSR {
	c := &CSR{
		n:          n,
		outOffsets: make([]int32, n+1),
		inOffsets:  make([]int32, n+1),
	}
	totalOut := 0
	totalIn := 0
	for i := 0; i < n; i++ {
		totalOut += len(out(VertexID(i)))
		totalIn += len(in(VertexID(i)))
		c.outOffsets[i+1] = int32(totalOut)
		c.inOffsets[i+1] = int32(totalIn)
	}
	c.outTargets = make([]VertexID, 0, totalOut)
	c.inTargets = make([]VertexID, 0, totalIn)
	for i := 0; i < n; i++ {
		c.outTargets = append(c.outTargets, out(VertexID(i))...)
		c.inTargets = append(c.inTargets, in(VertexID(i))...)
	}
	return c
}

// csrFromEdges builds a CSR directly from a deduplicated edge list,
// preserving first-occurrence order per vertex in both directions.
func csrFromEdges(n int, edges []Edge) *CSR {
	c := &CSR{
		n:          n,
		outOffsets: make([]int32, n+1),
		inOffsets:  make([]int32, n+1),
		outTargets: make([]VertexID, len(edges)),
		inTargets:  make([]VertexID, len(edges)),
	}
	for _, e := range edges {
		c.outOffsets[e.U+1]++
		c.inOffsets[e.V+1]++
	}
	for i := 0; i < n; i++ {
		c.outOffsets[i+1] += c.outOffsets[i]
		c.inOffsets[i+1] += c.inOffsets[i]
	}
	// next[u] tracks the fill cursor per vertex; after the fill it has
	// advanced to the next vertex's start offset.
	nextOut := make([]int32, n)
	nextIn := make([]int32, n)
	copy(nextOut, c.outOffsets[:n])
	copy(nextIn, c.inOffsets[:n])
	for _, e := range edges {
		c.outTargets[nextOut[e.U]] = e.V
		nextOut[e.U]++
		c.inTargets[nextIn[e.V]] = e.U
		nextIn[e.V]++
	}
	return c
}

// NewCSR assembles a CSR from raw offset/target arrays, taking ownership of
// the slices. It is the strict entry point for deserialized checkpoint
// images: the structure is validated — offset arrays of equal length n+1,
// monotone, starting at 0 and ending at the target count; targets in range;
// per-vertex in-degrees consistent with the out lists; and no row naming a
// target twice, the at-most-one-edge-per-pair rule — before anything is
// wrapped, so a corrupted image yields an error, never a CSR that can panic
// a reader later or break the graph's edge-set invariant. (Byte-level
// integrity is the checkpoint CRC's job; this guards structure.)
func NewCSR(outOffsets, inOffsets []int32, outTargets, inTargets []VertexID) (*CSR, error) {
	if len(outOffsets) == 0 || len(outOffsets) != len(inOffsets) {
		return nil, fmt.Errorf("graph: csr offset arrays have %d/%d entries", len(outOffsets), len(inOffsets))
	}
	n := len(outOffsets) - 1
	if len(outTargets) != len(inTargets) {
		return nil, fmt.Errorf("graph: csr has %d out targets but %d in targets", len(outTargets), len(inTargets))
	}
	if err := checkOffsets("out", outOffsets, len(outTargets)); err != nil {
		return nil, err
	}
	if err := checkOffsets("in", inOffsets, len(inTargets)); err != nil {
		return nil, err
	}
	for _, v := range outTargets {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("graph: csr out target %d outside [0,%d)", v, n)
		}
	}
	for _, u := range inTargets {
		if u < 0 || int(u) >= n {
			return nil, fmt.Errorf("graph: csr in target %d outside [0,%d)", u, n)
		}
	}
	// Cross-check the directions degree-wise: the in-degree of every vertex
	// must match the number of out entries naming it (and symmetrically).
	deg := make([]int32, n)
	for _, v := range outTargets {
		deg[v]++
	}
	for i := 0; i < n; i++ {
		if got := inOffsets[i+1] - inOffsets[i]; got != deg[i] {
			return nil, fmt.Errorf("graph: csr vertex %d has %d in entries but %d out entries name it", i, got, deg[i])
		}
	}
	for i := range deg {
		deg[i] = 0
	}
	for _, u := range inTargets {
		deg[u]++
	}
	for i := 0; i < n; i++ {
		if got := outOffsets[i+1] - outOffsets[i]; got != deg[i] {
			return nil, fmt.Errorf("graph: csr vertex %d has %d out entries but %d in entries name it", i, got, deg[i])
		}
	}
	if err := checkRows("out", outOffsets, outTargets, deg); err != nil {
		return nil, err
	}
	if err := checkRows("in", inOffsets, inTargets, deg); err != nil {
		return nil, err
	}
	return &CSR{
		n:          n,
		outOffsets: outOffsets,
		outTargets: outTargets,
		inOffsets:  inOffsets,
		inTargets:  inTargets,
	}, nil
}

// checkRows rejects a row that names the same target twice, stamping each
// target with its row in the n-long scratch mark (left dirty).
func checkRows(dir string, offsets []int32, targets []VertexID, mark []int32) error {
	clear(mark)
	for u := 1; u < len(offsets); u++ {
		for _, v := range targets[offsets[u-1]:offsets[u]] {
			if mark[v] == int32(u) {
				return fmt.Errorf("graph: csr %s row %d names %d twice", dir, u-1, v)
			}
			mark[v] = int32(u)
		}
	}
	return nil
}

func checkOffsets(dir string, offsets []int32, m int) error {
	if offsets[0] != 0 {
		return fmt.Errorf("graph: csr %s offsets start at %d, want 0", dir, offsets[0])
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			return fmt.Errorf("graph: csr %s offsets decrease at vertex %d", dir, i-1)
		}
	}
	if int(offsets[len(offsets)-1]) != m {
		return fmt.Errorf("graph: csr %s offsets end at %d, want %d", dir, offsets[len(offsets)-1], m)
	}
	return nil
}

// RawOut exposes the underlying out-direction arrays (offsets has n+1
// entries, targets one per edge). Read-only: the arrays are the live segment.
func (c *CSR) RawOut() (offsets []int32, targets []VertexID) {
	return c.outOffsets, c.outTargets
}

// RawIn exposes the underlying in-direction arrays with the same contract as
// RawOut.
func (c *CSR) RawIn() (offsets []int32, targets []VertexID) {
	return c.inOffsets, c.inTargets
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
