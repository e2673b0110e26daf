package graph

// Compaction is an in-flight merge of the delta segments into a new base.
// The expensive half — materializing the merged CSR — runs anywhere (a
// background goroutine); Install hands the result back to the goroutine that
// owns the graph. The protocol:
//
//	c := g.BeginCompaction()   // on the owner: O(#overlaid) freeze
//	base := c.Build()          // anywhere: run-copy merge, owner keeps mutating
//	g.Install(c, base)         // on the owner: O(#overlaid) swap
//
// Compact is this protocol run inline, and Snapshot is its Build half on a
// fresh View: View.CSR is the only merge.
//
// The merge copies rather than rebuilds. Base rows are contiguous and both
// overlay directions are exact sorted lists, so each direction of the new
// base is runs of old base rows copied between the overlaid ids plus the
// overlay rows themselves: O(n) offsets and one sequential copy of m
// targets per direction, with no transpose. On a skewed graph of 100 000
// vertices and 766 000 edges with 334 000 delta entries over 1 386 overlaid
// vertices, one merge from a View took 2.4 ms (best of 15, one core of a
// 2-vCPU box), against 21 ms for the transpose rebuild it replaced. On the
// write-stream graph after one 10 000-update batch (765 000 edges, 884 000
// delta entries over 9 059 overlaid vertices) an inline Compact takes
// 3.4 ms (median of seven runs' best of 15; 2.9 ms at the fastest), 0.3 to
// 0.7 ms of it the View's freeze.
//
// Install drops exactly the delta segments whose content the frozen view
// captured (their data is now in the new base) and keeps segments written
// after the freeze — each is a complete adjacency list, so it shadows the
// new base just as correctly as it shadowed the old one. Logical graph
// content is therefore unchanged, and since every list is sorted, so is its
// element order: float summation — and every differential bit-identity
// guarantee — is stable across compaction.
type Compaction struct {
	view *View
	gen  uint64 // delta segments with generation < gen are covered by view
}

// BeginCompaction freezes the current state as the compaction input.
func (g *Graph) BeginCompaction() *Compaction {
	v := g.View()
	return &Compaction{view: v, gen: g.viewGen}
}

// Build materializes the merged base segment (View.CSR). It reads only the
// frozen view, so it may run concurrently with further mutations of the
// graph.
func (c *Compaction) Build() *CSR {
	return c.view.CSR()
}

// Install swaps in the compacted base and prunes the delta segments it
// absorbed. It returns false without touching the graph when the base moved
// since BeginCompaction (an inline Compact or a checkpoint won the race) —
// the built CSR then describes a stale epoch and is discarded.
func (g *Graph) Install(c *Compaction, base *CSR) bool {
	if g.epoch != c.view.epoch {
		return false
	}
	g.base = base
	kept := g.overlaid[:0]
	delta := 0
	for _, u := range g.overlaid {
		for d := range g.ov {
			if g.gen[d][u] < c.gen {
				g.ov[d][u] = nil
			} else {
				delta += len(g.ov[d][u])
			}
		}
		if g.overlaidAt(u) {
			kept = append(kept, u)
		}
	}
	g.overlaid = kept
	g.deltaEdges = delta
	g.epoch++
	return true
}

// Compact synchronously merges every delta segment into a fresh base: it is
// BeginCompaction, Build and Install run back to back, so no segment is
// written after the freeze and Install drops them all. The logical graph is
// unchanged; afterwards all reads hit the flat CSR arrays. It does nothing
// when there are no delta segments and the base already covers every vertex
// (a graph grown by EnsureVertex alone still earns a base that covers it).
func (g *Graph) Compact() {
	if len(g.overlaid) == 0 && g.base.n == g.n {
		return
	}
	c := g.BeginCompaction()
	g.Install(c, c.Build())
}

// compactMinDelta is the floor below which no compaction fires: compacting
// a small delta trades an O(n+m) merge for little.
const compactMinDelta = 32768

// CompactThreshold is the delta size (adjacency entries, counting both
// directions) at which the delta segments have earned a compaction: a
// quarter of the live edge count, and never less than compactMinDelta, so
// the amortized cost is O(1) per delta entry. It is the one compaction
// policy: MaybeCompact applies it inline, and a Service starts a background
// merge at it.
func (g *Graph) CompactThreshold() int { return max(compactMinDelta, g.m/4) }

// MaybeCompact compacts when the delta segments have reached
// CompactThreshold. Trackers call it after each batch. It reports whether a
// compaction ran.
func (g *Graph) MaybeCompact() bool {
	if g.deltaEdges < g.CompactThreshold() {
		return false
	}
	g.Compact()
	return true
}

// CompactedSnapshot compacts the graph (a no-op when there are no deltas)
// and returns the resulting base segment, which callers may retain and share
// freely: it is immutable and already covers every vertex. This is the
// checkpoint writer's entry point — checkpointing doubles as a full
// compaction, and a freshly compacted graph checkpoints with zero copying.
func (g *Graph) CompactedSnapshot() *CSR {
	g.Compact()
	return g.base
}
