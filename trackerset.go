package dynppr

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dynppr/internal/fp"
	"dynppr/internal/graph"
	"dynppr/internal/push"
)

// TrackerSet maintains PPR vectors for several source vertices over one
// shared dynamic graph. This is the "general case" the paper defers to prior
// work: a non-unit personalization vector is served by maintaining multiple
// unit-vector PPR states. The graph is mutated once per update; every state
// is notified and then pushed, independent sources concurrently.
//
// It is the one multi-source maintainer: a Service holds a TrackerSet and
// adds journaling, snapshot publication and admission around it. The set
// keeps one engine per worker, and an engine holds nothing of a state
// between runs; the scratch a push works in is the state's own. A source is
// therefore its pair of vectors plus that scratch — the push FIFO, the
// candidate de-dup map and the estimate-dirty set, kept at their
// steady-state size across batches — so push scratch memory is sources ×,
// not workers ×. Which worker pushes which source is decided per batch by
// whoever is free; a source's bits cannot depend on it, because its push
// reads and writes only its own state and the (quiescent) graph.
//
// With Options.Engine set to EngineSequential or EngineDeterministic the
// whole set is therefore reproducible: each source's vectors are
// bit-identical to a Tracker's over the same history — a Tracker is a set of
// one source running this same loop — at any worker count.
//
// Like Tracker, a TrackerSet is not safe for concurrent use: ApplyBatch and
// Estimate must not overlap. When queries need to run concurrently with the
// update stream, use a Service instead — it maintains the same per-source
// states but serves reads lock-free from converged snapshots while writes
// flow through a serialized pipeline.
type TrackerSet struct {
	g      *Graph
	opts   Options
	states []*push.State // one per tracked source, in the order added
	// engines holds one push engine per worker; len(engines) bounds how many
	// sources are pushed at once.
	engines []push.Engine
	// touched is per-batch scratch recycled across batches, so the
	// steady-state write path does not allocate it anew.
	touched []graph.VertexID
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

// NewTrackerSet builds one tracker per source over the shared graph g and
// brings each to convergence. Duplicate sources are rejected.
func NewTrackerSet(g *Graph, sources []VertexID, opts Options) (*TrackerSet, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := validateSources(sources); err != nil {
		return nil, err
	}
	return newTrackerSet(g, opts, 0, sources, nil, nil)
}

// newTrackerSet is the shared constructor. workers bounds how many sources
// are pushed at once (<= 0 selects GOMAXPROCS). A nil states builds one state
// per source and cold-starts it; a non-nil states (parallel to sources) are
// converged states recovery restored, adopted without running any push.
// Either way after, if non-nil, is called once per source on the goroutine
// that holds it (see each).
func newTrackerSet(g *Graph, opts Options, workers int, sources []VertexID, states []*push.State, after func(*push.State)) (*TrackerSet, error) {
	ts := &TrackerSet{g: g, opts: opts, states: states}
	for range fp.ClampWorkers(workers) {
		engine, err := opts.buildEngine()
		if err != nil {
			return nil, err
		}
		ts.engines = append(ts.engines, engine)
	}
	cold := states == nil
	if cold {
		ts.states = make([]*push.State, 0, len(sources))
		for _, s := range sources {
			st, err := push.NewState(g, s, ts.config())
			if err != nil {
				return nil, err
			}
			ts.states = append(ts.states, st)
		}
	}
	ts.each(func(e push.Engine, st *push.State) {
		if cold {
			e.Run(st, []graph.VertexID{st.Source()})
		}
		if after != nil {
			after(st)
		}
	})
	return ts, nil
}

func (ts *TrackerSet) config() push.Config {
	return push.Config{Alpha: ts.opts.Alpha, Epsilon: ts.opts.Epsilon}
}

// each calls fn once per source — the one loop cold starts and batches run
// over the sources. The caller and up to len(engines)-1 further goroutines
// claim the next source from an atomic counter and hand fn their own engine,
// so no engine runs two sources at once and no source waits behind a
// particular worker. A set of one source, or of one worker, runs inline with
// no goroutine. each returns when every fn has, which orders everything a fn
// wrote (the state, a published snapshot) before the caller's next step.
func (ts *TrackerSet) each(fn func(e push.Engine, st *push.State)) {
	var next atomic.Int64
	claim := func(e push.Engine) {
		for i := next.Add(1) - 1; int(i) < len(ts.states); i = next.Add(1) - 1 {
			fn(e, ts.states[i])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(len(ts.engines), len(ts.states)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim(ts.engines[w])
		}()
	}
	claim(ts.engines[0])
	wg.Wait()
}

// apply is the paper's batch procedure for many sources: push.Restore
// applies b to the graph and restores every state's invariant after each
// effective update, then every source is pushed to convergence from the
// effective updates' source endpoints, and after (if non-nil) is called on
// each converged state. A batch with no effective update pushes nothing and
// calls after for no one. It returns the number of effective updates and
// the pushes performed.
func (ts *TrackerSet) apply(b Batch, after func(*push.State)) (applied int, pushes int64) {
	touched := push.Restore(ts.g, ts.states, b, ts.touched[:0])
	ts.touched = touched
	if len(touched) == 0 {
		return 0, 0
	}
	before := ts.pushes()
	ts.each(func(e push.Engine, st *push.State) {
		e.Run(st, touched)
		if after != nil {
			after(st)
		}
	})
	return len(touched), ts.pushes() - before
}

// add starts tracking source: its state is built on the current graph and
// cold-started on the caller's goroutine.
func (ts *TrackerSet) add(source VertexID) (*push.State, error) {
	st, err := push.NewState(ts.g, source, ts.config())
	if err != nil {
		return nil, err
	}
	ts.engines[0].Run(st, []graph.VertexID{source})
	ts.states = append(ts.states, st)
	return st, nil
}

// remove stops tracking source, keeping the others in order.
func (ts *TrackerSet) remove(source VertexID) {
	if i := ts.index(source); i >= 0 {
		ts.states = slices.Delete(ts.states, i, i+1)
	}
}

// index returns the position of source's state, or -1 when it is not
// tracked.
func (ts *TrackerSet) index(source VertexID) int {
	return slices.IndexFunc(ts.states, func(st *push.State) bool { return st.Source() == source })
}

// Sources returns the tracked source vertices in construction order.
func (ts *TrackerSet) Sources() []VertexID {
	out := make([]VertexID, len(ts.states))
	for i, st := range ts.states {
		out[i] = st.Source()
	}
	return out
}

// Graph returns the shared graph.
func (ts *TrackerSet) Graph() *Graph { return ts.g }

// Estimate returns the PPR estimate of v with respect to the given source.
// It returns an error wrapping ErrUnknownSource when the source is not
// tracked, so errors.Is works identically across TrackerSet and Service.
func (ts *TrackerSet) Estimate(source, v VertexID) (float64, error) {
	if i := ts.index(source); i >= 0 {
		return ts.states[i].Estimate(v), nil
	}
	return 0, fmt.Errorf("%w: %d", ErrUnknownSource, source)
}

// ApplyBatch applies the batch to the shared graph once, restores the
// invariant of every tracked source, pushes each source to convergence, and
// then compacts the graph if its delta segments have earned it.
func (ts *TrackerSet) ApplyBatch(b Batch) BatchResult {
	start := time.Now()
	applied, pushes := ts.apply(b, nil)
	// Between batches is a quiescent point (no engine is reading): fold
	// grown delta segments back into the CSR base.
	ts.g.MaybeCompact()
	return BatchResult{
		Applied: applied,
		Skipped: len(b) - applied,
		Latency: time.Since(start),
		Pushes:  pushes,
	}
}

// pushes sums the cumulative push counters of every source.
func (ts *TrackerSet) pushes() int64 {
	var n int64
	for _, st := range ts.states {
		n += atomic.LoadInt64(&st.Counters.Pushes)
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
