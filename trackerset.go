package dynppr

import (
	"fmt"
	"time"

	"dynppr/internal/fp"
	"dynppr/internal/graph"
	"dynppr/internal/push"
)

// TrackerSet maintains PPR vectors for several source vertices over one
// shared dynamic graph. This is the "general case" the paper defers to prior
// work: a non-unit personalization vector is served by maintaining multiple
// unit-vector PPR states. The graph is mutated once per update; every state
// is notified and then pushed, with the per-source pushes themselves running
// concurrently when the set is large.
//
// With Options.Engine set to EngineDeterministic the whole set is
// reproducible: each source's push is bit-identical at any
// Options.Parallelism, and since the per-source states are independent, the
// concurrency of the cross-source fan-out cannot perturb results either.
//
// Like Tracker, a TrackerSet is not safe for concurrent use: ApplyBatch and
// Estimate must not overlap. When queries need to run concurrently with the
// update stream, use a Service instead — it maintains the same per-source
// states but serves reads lock-free from converged snapshots while writes
// flow through a serialized pipeline.
type TrackerSet struct {
	g       *Graph
	opts    Options
	sources []VertexID
	states  []*push.State
	engines []push.Engine
	// setWorkers bounds how many sources are pushed concurrently.
	setWorkers int
	// touchedBuf is per-batch scratch recycled across ApplyBatch calls.
	touchedBuf []graph.VertexID
}

// validateSources rejects empty and duplicate source lists. Shared by
// NewTrackerSet and NewService.
func validateSources(sources []VertexID) error {
	if len(sources) == 0 {
		return fmt.Errorf("dynppr: at least one source is required")
	}
	seen := make(map[VertexID]struct{}, len(sources))
	for _, s := range sources {
		if _, dup := seen[s]; dup {
			return fmt.Errorf("dynppr: duplicate source %d", s)
		}
		seen[s] = struct{}{}
	}
	return nil
}

// applyBatchNotify applies b to g one update at a time and notifies every
// state after each effective mutation, so the invariant restore reads the
// out-degree of the intermediate graph exactly as Algorithm 1 requires. It
// returns the number of effective updates and their source endpoints,
// appended to dst (callers on the steady-state write path pass a recycled
// buffer so the per-batch touched list allocates nothing). Shared by
// TrackerSet.ApplyBatch and the Service write pipeline.
func applyBatchNotify(g *Graph, states []*push.State, b Batch, dst []graph.VertexID) (applied int, touched []graph.VertexID) {
	touched = dst
	if touched == nil {
		// Keep "no effective updates" distinct from the engines' nil
		// "full scan" request.
		touched = make([]graph.VertexID, 0, len(b))
	}
	for _, u := range b {
		switch u.Op {
		case Insert:
			added, err := g.AddEdge(u.U, u.V)
			if err != nil || !added {
				continue
			}
		case Delete:
			if err := g.RemoveEdge(u.U, u.V); err != nil {
				continue
			}
		default:
			continue
		}
		applied++
		touched = append(touched, u.U)
		for _, st := range states {
			if u.Op == Insert {
				st.NoteInserted(u.U, u.V)
			} else {
				st.NoteDeleted(u.U, u.V)
			}
		}
	}
	return applied, touched
}

// NewTrackerSet builds one tracker per source over the shared graph g and
// brings each to convergence. Duplicate sources are rejected.
func NewTrackerSet(g *Graph, sources []VertexID, opts Options) (*TrackerSet, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := validateSources(sources); err != nil {
		return nil, err
	}
	ts := &TrackerSet{
		g:          g,
		opts:       opts,
		sources:    append([]VertexID(nil), sources...),
		setWorkers: fp.DefaultWorkers(),
	}
	for _, s := range sources {
		engine, err := opts.buildEngine()
		if err != nil {
			return nil, err
		}
		st, err := push.NewState(g, s, push.Config{Alpha: opts.Alpha, Epsilon: opts.Epsilon})
		if err != nil {
			return nil, err
		}
		ts.states = append(ts.states, st)
		ts.engines = append(ts.engines, engine)
	}
	// Cold-start every source.
	fp.For(len(ts.states), ts.setWorkers, func(i int) {
		ts.engines[i].Run(ts.states[i], []graph.VertexID{ts.sources[i]})
	})
	return ts, nil
}

// Sources returns the tracked source vertices in construction order.
func (ts *TrackerSet) Sources() []VertexID {
	return append([]VertexID(nil), ts.sources...)
}

// Graph returns the shared graph.
func (ts *TrackerSet) Graph() *Graph { return ts.g }

// Estimate returns the PPR estimate of v with respect to the given source.
// It returns an error wrapping ErrUnknownSource when the source is not
// tracked, so errors.Is works identically across TrackerSet and Service.
func (ts *TrackerSet) Estimate(source, v VertexID) (float64, error) {
	for i, s := range ts.sources {
		if s == source {
			return ts.states[i].Estimate(v), nil
		}
	}
	return 0, fmt.Errorf("%w: %d", ErrUnknownSource, source)
}

// ApplyBatch applies the batch to the shared graph once, restores the
// invariant of every tracked source, and pushes each source to convergence.
func (ts *TrackerSet) ApplyBatch(b Batch) BatchResult {
	start := time.Now()
	before := ts.pushes()
	applied, touched := applyBatchNotify(ts.g, ts.states, b, ts.touchedBuf[:0])
	ts.touchedBuf = touched
	fp.For(len(ts.states), ts.setWorkers, func(i int) {
		ts.engines[i].Run(ts.states[i], touched)
	})
	// Between batches is a quiescent point (no engine is reading): fold
	// grown delta segments back into the CSR base.
	ts.g.MaybeCompact()
	return BatchResult{
		Applied: applied,
		Skipped: len(b) - applied,
		Latency: time.Since(start),
		Pushes:  ts.pushes() - before,
	}
}

// pushes sums the cumulative push counters of every source.
func (ts *TrackerSet) pushes() int64 {
	var n int64
	for _, st := range ts.states {
		n += st.Counters.Snapshot().Pushes
	}
	return n
}

// Converged reports whether every tracked source is within Epsilon.
func (ts *TrackerSet) Converged() bool {
	for _, st := range ts.states {
		if !st.Converged() {
			return false
		}
	}
	return true
}
