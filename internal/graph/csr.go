package graph

import "fmt"

// CSR is an immutable compressed-sparse-row segment of a graph, in both
// directions. It is the base segment of the LSM-style store (every Graph
// reads through to one), the frozen view the vertex-centric baseline and the
// power-iteration oracle operate on, and — its out arrays serialized
// verbatim — the checkpoint image format that makes recovery a bulk load
// instead of an edge replay. Every row is sorted by neighbor id, so the out
// rows alone determine the segment and the in rows are their transpose.
// Two constructors keep it so: newCSR derives the in rows from out rows
// (edge lists, checkpoint images), and Compaction.Build copies both
// directions, one mergeRows each, from a base plus the frozen overlay rows,
// which are already each other's transpose. Accessors assume ids in
// [0, NumVertices()); Graph and View perform the bounds checks before
// delegating.
type CSR struct {
	n   int
	dir [2]csrRows // indexed by direction: the out rows, then their transpose
}

// csrRows is one direction of a CSR: row u is targets[offsets[u]:offsets[u+1]].
type csrRows struct {
	offsets []int32
	targets []VertexID
}

// row returns u's list in direction d (read-only view).
func (c *CSR) row(d int, u VertexID) []VertexID {
	return c.dir[d].targets[c.dir[d].offsets[u]:c.dir[d].offsets[u+1]]
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
	return &CSR{n: n, dir: [2]csrRows{{outOffsets, outTargets}, {inOffsets, inTargets}}}
}

// mergeRows builds direction d of the CSR of a layered state: base rows for
// every vertex without an overlay in d, the overlay row for every vertex
// with one, and empty rows for vertices in [base.n, n) that have none. ovs
// must be sorted by id; m is the edge count (the target count of either
// direction). Both overlay directions are the exact lists the graph serves,
// so the in rows are copied like the out rows, never transposed. It walks
// the overlaid ids in ascending order: each stretch of base rows between two
// of them is copied with one append and its offsets shifted by how far the
// stretch moved, and each overlaid id contributes its overlay row. O(n)
// offsets plus one sequential copy of m targets.
func mergeRows(base *CSR, d, n, m int, ovs []idOverlay) csrRows {
	baseOff, baseTgt := base.dir[d].offsets, base.dir[d].targets
	offsets := make([]int32, n+1)
	targets := make([]VertexID, 0, m)
	next := 0 // first vertex whose row is not yet emitted
	// runTo emits the rows of vertices [next, hi), none of them overlaid.
	runTo := func(hi int) {
		if b := min(hi, base.n); next < b {
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
	for _, o := range ovs {
		if o.seg[d] == nil {
			continue // d reads the base: part of the next run
		}
		runTo(int(o.id))
		targets = append(targets, o.seg[d]...)
		offsets[o.id+1] = int32(len(targets))
		next = int(o.id) + 1
	}
	runTo(n)
	return csrRows{offsets, targets}
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
	return c.dir[dirOut].offsets, c.dir[dirOut].targets
}

// NumVertices returns the number of vertices in the snapshot.
func (c *CSR) NumVertices() int { return c.n }

// NumEdges returns the number of directed edges in the snapshot.
func (c *CSR) NumEdges() int { return len(c.dir[dirOut].targets) }

// InDegree returns the in-degree of v in the snapshot.
func (c *CSR) InDegree(v VertexID) int {
	return int(c.dir[dirIn].offsets[v+1] - c.dir[dirIn].offsets[v])
}

// OutNeighbors returns the out-neighbors of u (read-only view).
func (c *CSR) OutNeighbors(u VertexID) []VertexID {
	return c.row(dirOut, u)
}

// InNeighbors returns the in-neighbors of v (read-only view).
func (c *CSR) InNeighbors(v VertexID) []VertexID {
	return c.row(dirIn, v)
}
