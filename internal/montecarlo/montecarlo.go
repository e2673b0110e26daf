// Package montecarlo implements the incremental Monte-Carlo baseline the
// paper compares against (Bahmani, Chowdhury, Goel — "Fast incremental and
// personalized PageRank"): w random walks are simulated from the source
// vertex; the PPR estimate of a vertex is the fraction of walks that stop at
// it. On an edge update touching vertex u, only the walks that pass through u
// are re-simulated from their first visit to u. An inverted index from vertex
// to the walks visiting it makes the affected-walk lookup fast, at a
// significant memory and maintenance cost — which is exactly the overhead the
// paper's evaluation attributes the approach's poor throughput to.
//
// The estimate produced here is the *forward* PPR vector π_s (walks start at
// the source), the quantity the original Monte-Carlo method estimates. The
// harness compares engines on throughput, as the paper does, not on the exact
// vector they maintain.
package montecarlo

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"dynppr/internal/fp"
	"dynppr/internal/graph"
)

// Config configures the Monte-Carlo estimator.
type Config struct {
	// Alpha is the walk termination probability per step.
	Alpha float64
	// Walks is the number of random walks maintained (the paper uses 6·|V|
	// after trading accuracy for speed; callers typically pass a multiple of
	// the vertex count).
	Walks int
	// Seed drives all walk randomness.
	Seed int64
	// Workers is the number of goroutines used to (re)generate walks.
	Workers int
}

// maxWalkSteps caps walk length as a safety net against degenerate graphs.
const maxWalkSteps = 1000

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Alpha <= 0 || c.Alpha >= 1 {
		return fmt.Errorf("montecarlo: alpha must be in (0,1), got %v", c.Alpha)
	}
	if c.Walks <= 0 {
		return fmt.Errorf("montecarlo: walks must be positive, got %d", c.Walks)
	}
	return nil
}

// Estimator maintains w random walks from a source over a dynamic graph.
type Estimator struct {
	g      *graph.Graph
	source graph.VertexID
	cfg    Config

	// traces[i] is the vertex sequence of walk i, starting at the source.
	traces [][]graph.VertexID
	// index[v] is the set of walk ids whose trace visits v.
	index []map[int32]struct{}
	// visits[v] counts walks whose final vertex is v.
	visits []int64

	rng *rand.Rand
	mu  sync.Mutex // guards rng when walks are regenerated in parallel
}

// New builds the estimator and simulates the initial walk set on the current
// graph.
func New(g *graph.Graph, source graph.VertexID, cfg Config) (*Estimator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if source < 0 {
		return nil, fmt.Errorf("montecarlo: source must be non-negative, got %d", source)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = fp.DefaultWorkers()
	}
	g.EnsureVertex(source)
	e := &Estimator{
		g:      g,
		source: source,
		cfg:    cfg,
		traces: make([][]graph.VertexID, cfg.Walks),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	e.ensureSize(g.NumVertices())
	seeds := make([]int64, cfg.Walks)
	for i := range seeds {
		seeds[i] = e.rng.Int63()
	}
	fp.For(cfg.Walks, cfg.Workers, func(i int) {
		rng := rand.New(rand.NewSource(seeds[i]))
		e.traces[i] = e.walkFrom(e.source, rng, nil)
	})
	for i := range e.traces {
		e.registerWalk(int32(i))
	}
	return e, nil
}

// Source returns the source vertex.
func (e *Estimator) Source() graph.VertexID { return e.source }

// ensureSize grows the per-vertex structures to cover n vertices.
func (e *Estimator) ensureSize(n int) {
	for len(e.index) < n {
		e.index = append(e.index, nil)
		e.visits = append(e.visits, 0)
	}
}

// walkFrom simulates a walk starting at v. prefix, if non-nil, is the part of
// an existing trace to keep (ending at v's predecessor); the returned trace
// is prefix + the new suffix starting at v.
func (e *Estimator) walkFrom(v graph.VertexID, rng *rand.Rand, prefix []graph.VertexID) []graph.VertexID {
	trace := append(append([]graph.VertexID(nil), prefix...), v)
	cur := v
	for step := 0; step < maxWalkSteps; step++ {
		if rng.Float64() < e.cfg.Alpha {
			break
		}
		out := e.g.OutNeighbors(cur)
		if len(out) == 0 {
			break
		}
		cur = out[rng.Intn(len(out))]
		trace = append(trace, cur)
	}
	return trace
}

// registerWalk adds walk id to the inverted index and the visit counts.
func (e *Estimator) registerWalk(id int32) {
	trace := e.traces[id]
	for _, v := range trace {
		e.ensureSize(int(v) + 1)
		if e.index[v] == nil {
			e.index[v] = make(map[int32]struct{})
		}
		e.index[v][id] = struct{}{}
	}
	last := trace[len(trace)-1]
	e.visits[last]++
}

// unregisterWalk removes walk id from the inverted index and visit counts.
func (e *Estimator) unregisterWalk(id int32) {
	trace := e.traces[id]
	for _, v := range trace {
		if e.index[v] != nil {
			delete(e.index[v], id)
		}
	}
	last := trace[len(trace)-1]
	e.visits[last]--
}

// AffectedWalks returns the ids of walks whose trace visits u, in ascending
// id order. The inverted index is a map, so the raw iteration order is
// randomized per run; rerouting assigns fresh rng seeds positionally to the
// affected walks, so the order must be deterministic or two runs with the
// same Seed diverge after the first update.
func (e *Estimator) AffectedWalks(u graph.VertexID) []int32 {
	if int(u) >= len(e.index) || e.index[u] == nil {
		return nil
	}
	out := make([]int32, 0, len(e.index[u]))
	for id := range e.index[u] {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// ApplyInsert applies edge insertion u->v to the graph and re-routes every
// walk passing through u from its first visit of u. It reports whether the
// edge was added (a duplicate is a skipped update) and the number of walks
// that were re-simulated.
func (e *Estimator) ApplyInsert(u, v graph.VertexID) (changed bool, rerouted int, err error) {
	added, err := e.g.AddEdge(u, v)
	if err != nil || !added {
		return false, 0, err
	}
	e.ensureSize(e.g.NumVertices())
	return true, e.reroute(u), nil
}

// ApplyDelete applies edge deletion u->v and re-routes affected walks. It
// reports whether the edge was removed (a missing edge is a skipped update)
// and the number of walks that were re-simulated.
func (e *Estimator) ApplyDelete(u, v graph.VertexID) (changed bool, rerouted int, err error) {
	if e.g.RemoveEdge(u, v) != nil {
		return false, 0, nil
	}
	return true, e.reroute(u), nil
}

// reroute re-simulates every walk that visits u, keeping the prefix before
// the first visit of u. Walk regeneration runs in parallel; index updates are
// applied serially afterwards (they touch shared maps).
func (e *Estimator) reroute(u graph.VertexID) int {
	affected := e.AffectedWalks(u)
	if len(affected) == 0 {
		return 0
	}
	e.mu.Lock()
	seeds := make([]int64, len(affected))
	for i := range seeds {
		seeds[i] = e.rng.Int63()
	}
	e.mu.Unlock()

	newTraces := make([][]graph.VertexID, len(affected))
	fp.For(len(affected), e.cfg.Workers, func(i int) {
		id := affected[i]
		trace := e.traces[id]
		cut := 0
		for cut < len(trace) && trace[cut] != u {
			cut++
		}
		rng := rand.New(rand.NewSource(seeds[i]))
		newTraces[i] = e.walkFrom(u, rng, trace[:cut])
	})
	for i, id := range affected {
		e.unregisterWalk(id)
		e.traces[id] = newTraces[i]
		e.registerWalk(id)
	}
	return len(affected)
}

// Estimate returns the Monte-Carlo PPR estimate of v: the fraction of walks
// whose final vertex is v.
func (e *Estimator) Estimate(v graph.VertexID) float64 {
	if int(v) >= len(e.visits) || v < 0 {
		return 0
	}
	return float64(e.visits[v]) / float64(len(e.traces))
}

// Estimates returns the full estimate vector over the current vertex set.
func (e *Estimator) Estimates() []float64 {
	out := make([]float64, len(e.visits))
	total := float64(len(e.traces))
	for v, c := range e.visits {
		out[v] = float64(c) / total
	}
	return out
}

// CheckConsistency verifies that the inverted index and visit counts exactly
// describe the current traces. Used by tests and failure injection.
func (e *Estimator) CheckConsistency() error {
	visits := make([]int64, len(e.visits))
	indexed := make([]map[int32]struct{}, len(e.index))
	for id, trace := range e.traces {
		if len(trace) == 0 || trace[0] != e.source {
			return fmt.Errorf("montecarlo: walk %d does not start at the source", id)
		}
		for _, v := range trace {
			if indexed[v] == nil {
				indexed[v] = make(map[int32]struct{})
			}
			indexed[v][int32(id)] = struct{}{}
		}
		visits[trace[len(trace)-1]]++
	}
	for v := range visits {
		if visits[v] != e.visits[v] {
			return fmt.Errorf("montecarlo: visit count mismatch at %d: %d vs %d", v, visits[v], e.visits[v])
		}
		want := len(indexed[v])
		got := len(e.index[v])
		if want != got {
			return fmt.Errorf("montecarlo: index size mismatch at %d: %d vs %d", v, want, got)
		}
		for id := range indexed[v] {
			if _, ok := e.index[v][id]; !ok {
				return fmt.Errorf("montecarlo: walk %d missing from index of %d", id, v)
			}
		}
	}
	return nil
}
