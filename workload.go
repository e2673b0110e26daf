package dynppr

import (
	"dynppr/internal/edgeio"
	"dynppr/internal/gen"
	"dynppr/internal/stream"
)

// Synthetic graph generation and streaming workloads, re-exported so
// applications and examples can build realistic dynamic-graph scenarios
// without touching internal packages.

// GraphModel selects a synthetic random-graph model.
type GraphModel = gen.Model

// Available graph models.
const (
	// ModelErdosRenyi draws edge endpoints uniformly at random.
	ModelErdosRenyi GraphModel = gen.ErdosRenyi
	// ModelBarabasiAlbert grows a power-law graph by preferential attachment.
	ModelBarabasiAlbert GraphModel = gen.BarabasiAlbert
	// ModelRMAT generates power-law graphs by recursive quadrant sampling.
	ModelRMAT GraphModel = gen.RMAT
)

// SyntheticConfig describes a synthetic graph to generate.
type SyntheticConfig = gen.Config

// GenerateEdges builds only the edge list of a synthetic graph, for feeding a
// Stream.
func GenerateEdges(cfg SyntheticConfig) ([]Edge, error) { return gen.EdgeList(cfg) }

// Stream is a replayable random-arrival-order edge sequence.
type Stream = stream.Stream

// NewStream assigns a random arrival order (driven by seed) to the edges.
func NewStream(edges []Edge, seed int64) *Stream { return stream.NewStream(edges, seed) }

// SlidingWindow replays a stream through a fixed-size window, producing
// batches of insertions (arriving edges) and deletions (expiring edges).
type SlidingWindow = stream.SlidingWindow

// NewSlidingWindow initializes a window over the first initialFraction of the
// stream and returns the initial window edges for building the starting
// graph.
func NewSlidingWindow(s *Stream, initialFraction float64) (*SlidingWindow, []Edge) {
	return stream.NewSlidingWindow(s, initialFraction)
}

// LoadEdges reads a whitespace-separated "u v" edge list file ('#' and '%'
// comment lines are skipped), the format used by the SNAP archive and by the
// cmd tools of this repository.
func LoadEdges(path string) ([]Edge, error) { return edgeio.LoadFile(path) }

// SaveEdges writes an edge list file.
func SaveEdges(path string, edges []Edge) error { return edgeio.SaveFile(path, edges) }
