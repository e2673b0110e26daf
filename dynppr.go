// Package dynppr maintains approximate Personalized PageRank (PPR) vectors
// over dynamic graphs, in parallel, following "Parallel Personalized PageRank
// on Dynamic Graphs" (Guo, Li, Sha, Tan — PVLDB 11(1), 2017).
//
// The library maintains one quantity, the contribution vector of Equation 2,
// with one invariant-restore loop and one local push. The central type is the
// Tracker: it owns a per-source estimate/residual state over a dynamic
// directed graph and keeps the estimate within ε of the exact value while
// edges are inserted and deleted in batches. A Tracker is a TrackerSet of one
// source, so both run the same loop — the paper's local update scheme,
// invariant restoration per update of a batch followed by one local push —
// with a choice of engines:
//
//   - the sequential push of the prior state of the art (Algorithm 2),
//   - the optimized parallel push with eager propagation and local duplicate
//     detection (Algorithm 4, the paper's contribution),
//   - a deterministic parallel push (EngineDeterministic): the frontier is
//     partitioned into fixed stripes with per-stripe delta buffers merged by
//     an ordered reduction, so the resulting vectors are bit-identical at
//     every Options.Parallelism — replaying a batch log reproduces snapshots
//     exactly (see internal/parallel).
//
// Options.Parallelism is the degree of parallelism of every parallel engine;
// only EngineDeterministic is bit-identical across it. The paper's other
// baselines — the ablation variants of Algorithm 4, the vertex-centric
// formulation, per-update processing — are reproduced by cmd/dppr-bench
// through internal/bench, not offered here.
//
// The value tracked for source s is the contribution PPR: Estimate(v)
// approximates the probability that a random walk started at v, terminating
// with probability Alpha at every step, stops at s. Equivalently it is
// π_v(s), the personalized PageRank of s from source v, so ranking vertices
// by Estimate answers "who points at s, directly or indirectly, the most".
//
// A minimal session:
//
//	g := dynppr.NewGraph(0)
//	g.AddEdge(1, 2)
//	g.AddEdge(2, 3)
//	tr, err := dynppr.NewTracker(g, 3, dynppr.DefaultOptions())
//	...
//	tr.ApplyBatch(dynppr.Batch{
//		{U: 4, V: 3, Op: dynppr.Insert},
//		{U: 1, V: 2, Op: dynppr.Delete},
//	})
//	fmt.Println(tr.Estimate(4))
//
// Tracker and TrackerSet are single-goroutine types. To serve queries from
// many goroutines while an update stream is applied, use Service: it drives a
// TrackerSet through one serialized write pipeline, pushing up to PoolWorkers
// sources at once, and answers reads lock-free from converged snapshots. A
// Service takes no engine choice — every push it runs is the sequential one,
// one goroutine per source, so its snapshots are bit-identical across pool
// sizes, replay and recovery.
//
// To serve a Service over the network, see internal/httpapi (HTTP/JSON
// handler, server and client; every read response carries the SnapshotInfo
// of the converged snapshot it came from) together with cmd/dppr-httpd (the
// daemon) and cmd/dppr-loadgen (a load generator, closed loop for peak
// throughput or open loop at a fixed arrival rate for an overload SLO check
// with -arrival, -max-p99 and -expect-shed, that doubles as a
// serving-contract checker). The README's "HTTP API" section documents the
// routes, JSON shapes and status codes.
package dynppr

import (
	"fmt"
	"time"

	"dynppr/internal/graph"
	"dynppr/internal/metrics"
	"dynppr/internal/parallel"
	"dynppr/internal/power"
	"dynppr/internal/push"
	"dynppr/internal/stream"
)

// Re-exported graph and stream types, so users of the library construct
// inputs without reaching into internal packages.
type (
	// VertexID identifies a vertex; ids are dense non-negative integers.
	VertexID = graph.VertexID
	// Edge is a directed edge U -> V.
	Edge = graph.Edge
	// Graph is a dynamic directed graph supporting edge insertion/deletion.
	Graph = graph.Graph
	// Update is a single edge insertion or deletion.
	Update = stream.Update
	// Batch is the set of updates arriving at one time step.
	Batch = stream.Batch
	// Op is the update type (Insert or Delete).
	Op = stream.Op
	// Variant selects the parallel-push optimizations (see VariantOpt).
	Variant = push.Variant
	// Counters reports the work performed by the engine (pushes, atomic
	// operations, frontier sizes, ...).
	Counters = metrics.Counters
)

// Update operation kinds.
const (
	// Insert adds the edge U -> V.
	Insert = stream.Insert
	// Delete removes the edge U -> V.
	Delete = stream.Delete
)

// VariantOpt enables eager propagation and local duplicate detection
// (Algorithm 4); this is the default and the paper's contribution.
var VariantOpt = push.VariantOpt

// NewGraph returns an empty dynamic graph pre-sized for n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// GraphFromEdges builds a graph from an edge list, ignoring duplicates.
func GraphFromEdges(edges []Edge) *Graph { return graph.FromEdges(edges) }

// EngineKind selects the push engine a Tracker or TrackerSet uses. A Service
// takes no engine choice: it always runs EngineSequential.
type EngineKind int

const (
	// EngineParallel is the paper's parallel local push (default: the Opt
	// variant running on all available cores).
	EngineParallel EngineKind = iota
	// EngineSequential is the sequential local push baseline, and the engine
	// every Service runs (one per pool worker).
	EngineSequential
	// EngineDeterministic is the deterministic parallel push of
	// internal/parallel: per-stripe delta buffers merged by an ordered
	// reduction make the estimate and residual vectors bit-identical for
	// every Options.Parallelism, with an adaptive cutover that runs small
	// frontiers inline. Use it for differential testing or when the
	// atomic-add engines' scheduling noise is unwanted.
	EngineDeterministic
)

// String names the engine kind.
func (k EngineKind) String() string {
	switch k {
	case EngineParallel:
		return "parallel"
	case EngineSequential:
		return "sequential"
	case EngineDeterministic:
		return "deterministic"
	default:
		return fmt.Sprintf("engine(%d)", int(k))
	}
}

// Options configure a Tracker or TrackerSet. A Service reads only Alpha and
// Epsilon: Engine, Variant and Parallelism do not reach the serving path.
type Options struct {
	// Alpha is the teleport/termination probability. Default 0.15.
	Alpha float64
	// Epsilon is the approximation threshold: estimates stay within Epsilon
	// of the exact value. Default 1e-6.
	Epsilon float64
	// Engine selects the push implementation (Tracker and TrackerSet only).
	// Default EngineParallel.
	Engine EngineKind
	// Variant selects EngineParallel's optimizations (ignored by the other
	// engines). Default VariantOpt.
	Variant Variant
	// Parallelism is the degree of parallelism of every parallel engine
	// (Tracker and TrackerSet only); <= 0 (the default) selects GOMAXPROCS.
	// It changes the last-ulp rounding of EngineParallel, whose atomic adds
	// land in scheduling order; EngineDeterministic produces bit-identical
	// vectors at every value.
	Parallelism int
}

// DefaultOptions returns the paper's defaults: α = 0.15, ε = 1e-6 and the
// fully optimized parallel engine using every available core. Every batch is
// processed the paper's way — all its updates restored, then one push; to
// push after each update instead, apply one-update batches.
func DefaultOptions() Options {
	return Options{
		Alpha:   0.15,
		Epsilon: 1e-6,
		Engine:  EngineParallel,
		Variant: VariantOpt,
	}
}

// Validate reports option errors.
func (o Options) Validate() error {
	return push.Config{Alpha: o.Alpha, Epsilon: o.Epsilon}.Validate()
}

func (o Options) buildEngine() (push.Engine, error) {
	switch o.Engine {
	case EngineParallel:
		return push.NewParallel(o.Variant, o.Parallelism), nil
	case EngineSequential:
		return push.NewSequential(), nil
	case EngineDeterministic:
		return parallel.NewPushEngine(o.Parallelism), nil
	default:
		return nil, fmt.Errorf("dynppr: unknown engine kind %v", o.Engine)
	}
}

// BatchResult reports what one ApplyBatch call did.
type BatchResult struct {
	// Applied is the number of updates that changed the graph (duplicates of
	// existing edges and deletions of missing edges are skipped).
	Applied int
	// Skipped is the number of no-op updates.
	Skipped int
	// Latency is the wall-clock time of the whole call (restoration + push).
	Latency time.Duration
	// Pushes is the number of push operations the engine performed for this
	// batch.
	Pushes int64
}

// Tracker maintains an ε-approximate PPR vector for one source vertex over a
// dynamic graph. It is a one-source, one-worker TrackerSet: construction,
// invariant restoration and push run the set's loop, so a Tracker's vectors
// are bit-identical to those of its source in a TrackerSet fed the same
// batches under EngineSequential or EngineDeterministic. A Tracker by itself
// is not safe for concurrent use — apply batches and issue queries from one
// goroutine (the engine parallelizes internally). To serve queries
// concurrently with a live update stream, wrap the same state in a Service,
// which decouples lock-free snapshot reads from a serialized write pipeline.
type Tracker struct {
	ts *TrackerSet
	st *push.State // ts's one state
}

// NewTracker builds a tracker for the given source over g and brings it to
// convergence on the current graph. The graph is retained and mutated by
// ApplyBatch; it must not be mutated elsewhere while the tracker is in use
// (use a TrackerSet to share one graph between several sources).
func NewTracker(g *Graph, source VertexID, opts Options) (*Tracker, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	ts, err := newTrackerSet(g, opts, 1, []VertexID{source}, nil, nil)
	if err != nil {
		return nil, err
	}
	return &Tracker{ts: ts, st: ts.states[0]}, nil
}

// Source returns the tracked source vertex.
func (t *Tracker) Source() VertexID { return t.st.Source() }

// Graph returns the tracked graph.
func (t *Tracker) Graph() *Graph { return t.ts.g }

// Options returns the options the tracker was built with.
func (t *Tracker) Options() Options { return t.ts.opts }

// EngineName returns the name of the engine in use (for experiment output).
func (t *Tracker) EngineName() string { return t.ts.engines[0].Name() }

// Estimate returns the current PPR estimate of v; it is within Epsilon of the
// exact value for the current graph.
func (t *Tracker) Estimate(v VertexID) float64 { return t.st.Estimate(v) }

// Residual returns the current residual of v (the bound on its estimation
// bias).
func (t *Tracker) Residual(v VertexID) float64 { return t.st.Residual(v) }

// Estimates returns a copy of the full estimate vector.
func (t *Tracker) Estimates() []float64 { return t.st.Estimates() }

// Converged reports whether every residual is within Epsilon (always true
// after ApplyBatch returns).
func (t *Tracker) Converged() bool { return t.st.Converged() }

// Counters returns a snapshot of the work counters accumulated so far.
func (t *Tracker) Counters() Counters { return t.st.Counters.Snapshot() }

// ApplyBatch applies a batch of edge updates and restores the approximation
// guarantee before returning: the TrackerSet procedure runs once over the
// whole batch.
func (t *Tracker) ApplyBatch(b Batch) BatchResult {
	return t.ts.ApplyBatch(b)
}

// VertexScore pairs a vertex with its PPR estimate.
type VertexScore = push.VertexScore

// TopK returns the k vertices with the largest PPR estimates, descending
// (ties broken by ascending vertex id). The source itself is included.
// The selection reads the live estimate vector directly — no O(n) copy.
func (t *Tracker) TopK(k int) []VertexScore {
	return t.st.AppendTopK(nil, k)
}

// ExactError computes the exact contribution PPR vector of the current graph
// by dense fixed-point iteration and returns the tracker's maximum absolute
// estimation error. It is expensive (O(iterations × edges)) and intended for
// validation and experiments, not for the hot path.
func (t *Tracker) ExactError() (float64, error) {
	return power.ExactError(t.st.Graph(), t.st.Source(), t.ts.opts.Alpha, t.st.Estimates())
}
