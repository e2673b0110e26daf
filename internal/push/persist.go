package push

import (
	"fmt"

	"dynppr/internal/fp"
	"dynppr/internal/graph"
	"dynppr/internal/metrics"
)

// RestoreState rebuilds a State from checkpointed vectors instead of the
// cold-start distribution, so a recovered source resumes from exactly the
// converged (P, R) pair it had when the checkpoint was written — bit for
// bit, which is what makes recovery reproducible. The vector length is
// preserved as serialized: it may lag g.NumVertices() when the graph grew
// without touching this source (sync grows it on the next mutation, exactly
// as it would have in the original process).
func RestoreState(g *graph.Graph, source graph.VertexID, cfg Config, estimates, residuals []float64) (*State, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if source < 0 {
		return nil, fmt.Errorf("push: source must be non-negative, got %d", source)
	}
	if len(estimates) != len(residuals) {
		return nil, fmt.Errorf("push: restore vectors disagree: %d estimates, %d residuals", len(estimates), len(residuals))
	}
	if int(source) >= len(estimates) {
		return nil, fmt.Errorf("push: restore vectors of length %d do not cover source %d", len(estimates), source)
	}
	if len(estimates) > g.NumVertices() {
		return nil, fmt.Errorf("push: restore vectors cover %d vertices, graph has %d", len(estimates), g.NumVertices())
	}
	n := len(estimates)
	st := &State{
		g:           g,
		source:      source,
		cfg:         cfg,
		p:           fp.NewFloat64Vector(n),
		r:           fp.NewFloat64Vector(n),
		dirtyMarked: make([]bool, n),
		Counters:    &metrics.Counters{},
	}
	for i := 0; i < n; i++ {
		st.p.Set(i, estimates[i])
		st.r.Set(i, residuals[i])
	}
	// A restored vector has no publication history: poison the dirty set so
	// the recovery reseed's first publication full-copies and the Top-K
	// index rebuilds, instead of trusting deltas tracked in another life.
	st.MarkAllEstimatesDirty()
	return st, nil
}
