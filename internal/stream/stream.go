// Package stream implements the dynamic graph model of the paper (Section
// 2.2): an unbounded sequence of update batches ΔE_t, each element (u, v, op)
// inserting or deleting a directed edge, plus the sliding-window workload
// used by the evaluation (Section 5.1): edges receive random timestamps, the
// first 10% build the initial window, and every slide of size k inserts the k
// newest edges while deleting the k oldest.
package stream

import (
	"fmt"
	"math/rand"

	"dynppr/internal/graph"
)

// Op is the type of an edge update.
type Op int8

const (
	// Insert adds the edge u -> v.
	Insert Op = 1
	// Delete removes the edge u -> v.
	Delete Op = -1
)

// String returns "insert" or "delete".
func (o Op) String() string {
	switch o {
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", int8(o))
	}
}

// Update is a single edge update (u, v, op).
type Update struct {
	U, V graph.VertexID
	Op   Op
}

// Batch is the set of updates arriving at one time step (ΔE_t).
type Batch []Update

// Apply applies every update of the batch to g in order. Inserting an edge
// that already exists or deleting one that does not is silently skipped, and
// the number of updates that actually changed the graph is returned: the
// local update scheme must only restore the invariant for effective updates.
func (b Batch) Apply(g *graph.Graph) (applied []Update) {
	applied = make([]Update, 0, len(b))
	for _, u := range b {
		switch u.Op {
		case Insert:
			added, err := g.AddEdge(u.U, u.V)
			if err == nil && added {
				applied = append(applied, u)
			}
		case Delete:
			if err := g.RemoveEdge(u.U, u.V); err == nil {
				applied = append(applied, u)
			}
		}
	}
	return applied
}

// Stream is a finite, replayable sequence of timestamped edges simulating the
// random edge arrival model: edge order is a random permutation of the input
// edge list.
type Stream struct {
	edges []graph.Edge
}

// NewStream builds a stream by assigning random timestamps (i.e. a random
// permutation) to the given edges, using the provided seed.
func NewStream(edges []graph.Edge, seed int64) *Stream {
	perm := make([]graph.Edge, len(edges))
	copy(perm, edges)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return &Stream{edges: perm}
}

// Len returns the total number of edges in the stream.
func (s *Stream) Len() int { return len(s.edges) }

// Prefix returns the first n edges of the stream.
func (s *Stream) Prefix(n int) []graph.Edge {
	if n > len(s.edges) {
		n = len(s.edges)
	}
	if n < 0 {
		n = 0
	}
	return s.edges[:n]
}

// SlidingWindow replays a stream through a fixed-size window: each slide of
// size k emits a batch containing k insertions (the next k edges of the
// stream) and k deletions (the k oldest edges currently in the window).
type SlidingWindow struct {
	stream *Stream
	// window holds indices into stream.edges; [head, tail) is the live window.
	head, tail int
}

// NewSlidingWindow initializes a window over the first initialFraction of the
// stream (the paper uses 10%). The initial window edges are returned so the
// caller can build the starting graph; subsequent slides come from Slide.
func NewSlidingWindow(s *Stream, initialFraction float64) (*SlidingWindow, []graph.Edge) {
	if initialFraction < 0 {
		initialFraction = 0
	}
	if initialFraction > 1 {
		initialFraction = 1
	}
	init := int(float64(s.Len()) * initialFraction)
	w := &SlidingWindow{stream: s, head: 0, tail: init}
	return w, s.Prefix(init)
}

// Size returns the current number of edges inside the window.
func (w *SlidingWindow) Size() int { return w.tail - w.head }

// Remaining returns how many un-arrived edges are left in the stream.
func (w *SlidingWindow) Remaining() int { return w.stream.Len() - w.tail }

// Slide advances the window by k edges and returns the resulting update
// batch: k insertions of newly arrived edges followed by k deletions of the
// expired edges. If fewer than k edges remain, the slide is truncated; an
// exhausted stream returns an empty batch.
func (w *SlidingWindow) Slide(k int) Batch {
	if k <= 0 {
		return nil
	}
	if rem := w.Remaining(); k > rem {
		k = rem
	}
	if k == 0 {
		return nil
	}
	batch := make(Batch, 0, 2*k)
	for i := 0; i < k; i++ {
		e := w.stream.edges[w.tail+i]
		batch = append(batch, Update{U: e.U, V: e.V, Op: Insert})
	}
	for i := 0; i < k; i++ {
		e := w.stream.edges[w.head+i]
		batch = append(batch, Update{U: e.U, V: e.V, Op: Delete})
	}
	w.tail += k
	w.head += k
	return batch
}
