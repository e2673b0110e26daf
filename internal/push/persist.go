package push

import (
	"fmt"

	"dynppr/internal/graph"
)

// RestoreState rebuilds a State from checkpointed vectors instead of the
// cold-start distribution, so a recovered source resumes from exactly the
// converged (P, R) pair it had when the checkpoint was written — bit for
// bit, which is what makes recovery reproducible. The state adopts the two
// vectors, as graph.FromCSR adopts a decoded CSR image: the caller must not
// use them afterwards. The vector length is preserved as serialized: it may
// lag g.NumVertices() when the graph grew without touching this source (sync
// grows it on the next mutation, exactly as it would have in the original
// process).
func RestoreState(g *graph.Graph, source graph.VertexID, cfg Config, estimates, residuals []float64) (*State, error) {
	n := len(estimates)
	st, err := newState(g, source, cfg, estimates, residuals)
	switch {
	case err != nil:
		return nil, err
	case len(residuals) != n:
		return nil, fmt.Errorf("push: restore vectors disagree: %d estimates, %d residuals", n, len(residuals))
	case int(source) >= n:
		return nil, fmt.Errorf("push: restore vectors of length %d do not cover source %d", n, source)
	case n > g.NumVertices():
		return nil, fmt.Errorf("push: restore vectors cover %d vertices, graph has %d", n, g.NumVertices())
	}
	// A restored vector has no publication history: poison the dirty set so
	// the recovery reseed's first publication full-copies and the Top-K
	// index rebuilds, instead of trusting deltas tracked in another life.
	st.MarkAllEstimatesDirty()
	return st, nil
}
