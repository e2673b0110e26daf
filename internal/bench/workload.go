package bench

import (
	"fmt"
	"time"

	"dynppr/internal/gen"
	"dynppr/internal/graph"
	"dynppr/internal/metrics"
	"dynppr/internal/montecarlo"
	"dynppr/internal/push"
	"dynppr/internal/stream"
	"dynppr/internal/vc"
)

// Workload is a replayable sliding-window experiment input for one dataset:
// the edge stream, the initial window, and the source vertex.
type Workload struct {
	Dataset gen.Dataset
	Edges   []graph.Edge
	Stream  *stream.Stream
	// InitialEdges is the content of the initial window (the first
	// InitialWindowFraction of the stream).
	InitialEdges []graph.Edge
	// Source is the tracked source vertex, chosen from the highest-degree
	// vertices of the initial graph unless overridden.
	Source graph.VertexID
	// WindowSize is the number of edges inside the window.
	WindowSize int

	params Params
}

// BuildWorkload generates the dataset, orders it into a stream, and fixes the
// source vertex.
func BuildWorkload(d gen.Dataset, p Params) (*Workload, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	edges, err := gen.EdgeList(d.Config)
	if err != nil {
		return nil, err
	}
	s := stream.NewStream(edges, p.Seed)
	window, initial := stream.NewSlidingWindow(s, p.InitialWindowFraction)
	g := graph.FromEdges(initial)
	if g.NumVertices() == 0 {
		return nil, fmt.Errorf("bench: dataset %s produced an empty initial window", d.Name)
	}
	source := g.TopDegreeVertices(1)[0]
	return &Workload{
		Dataset:      d,
		Edges:        edges,
		Stream:       s,
		InitialEdges: initial,
		Source:       source,
		WindowSize:   window.Size(),
		params:       p,
	}, nil
}

// NewRun returns a fresh sliding window and the matching initial graph so
// that each measured configuration replays exactly the same update sequence.
func (w *Workload) NewRun() (*stream.SlidingWindow, *graph.Graph) {
	window, initial := stream.NewSlidingWindow(w.Stream, w.params.InitialWindowFraction)
	return window, graph.FromEdges(initial)
}

// BatchSize converts a batch ratio into an edge count (at least 1).
func (w *Workload) BatchSize(ratio float64) int {
	k := int(float64(w.WindowSize) * ratio)
	if k < 1 {
		k = 1
	}
	return k
}

// Approach identifies one of the compared systems (Figure 5 legend).
type Approach string

// The approaches of the evaluation. The paper's GPU approach is not
// reproduced: the Go engines run on CPU cores only, so the figures compare
// the CPU approaches and the two baselines.
const (
	// ApproachBase is the sequential push applied per single update (the
	// prior state of the art, CPU-Base).
	ApproachBase Approach = "CPU-Base"
	// ApproachSeq is the sequential push with batch updates (CPU-Seq).
	ApproachSeq Approach = "CPU-Seq"
	// ApproachMT is the optimized parallel push with batch updates (CPU-MT).
	ApproachMT Approach = "CPU-MT"
	// ApproachMonteCarlo is the incremental Monte-Carlo baseline.
	ApproachMonteCarlo Approach = "Monte-Carlo"
	// ApproachLigra is the vertex-centric (Ligra-style) implementation.
	ApproachLigra Approach = "Ligra"
)

// AllApproaches lists the approaches in the order the paper's legends use.
func AllApproaches() []Approach {
	return []Approach{ApproachBase, ApproachSeq, ApproachMT, ApproachMonteCarlo, ApproachLigra}
}

// runResult aggregates one measured configuration.
type runResult struct {
	Latency  metrics.Histogram
	Counters metrics.Counters
	// UpdatesApplied counts effective edge updates (inserts + deletes) fed to
	// the approach across all measured slides.
	UpdatesApplied int64
	// state is a push approach's state after the last slide.
	state *push.State
}

// MeanLatency returns the mean per-slide latency.
func (r *runResult) MeanLatency() time.Duration { return r.Latency.Mean() }

// Throughput returns effective updates per second of measured slide time.
func (r *runResult) Throughput() float64 {
	if r.Latency.Sum() <= 0 {
		return 0
	}
	return float64(r.UpdatesApplied) / r.Latency.Sum().Seconds()
}

// pushEngineFor builds the push engine of a push-based approach.
func pushEngineFor(a Approach, variant push.Variant, workers int) (push.Engine, error) {
	switch a {
	case ApproachBase, ApproachSeq:
		return push.NewSequential(), nil
	case ApproachMT:
		return push.NewParallel(variant, workers), nil
	case ApproachLigra:
		return vc.NewPPREngine(workers), nil
	default:
		return nil, fmt.Errorf("bench: %s is not a push-based approach", a)
	}
}

// runPush replays the sliding window against a push-based approach and
// reports per-slide latency and work counters. Every slide goes through
// push.Restore; Base mode restores and pushes one update at a time, the
// other approaches push once per batch.
func (w *Workload) runPush(a Approach, variant push.Variant, workers int,
	epsilon float64, batchSize, slides int, source graph.VertexID) (*runResult, error) {
	engine, err := pushEngineFor(a, variant, workers)
	if err != nil {
		return nil, err
	}
	window, g := w.NewRun()
	st, err := push.NewState(g, source, push.Config{Alpha: w.params.Alpha, Epsilon: epsilon})
	if err != nil {
		return nil, err
	}
	engine.Run(st, []graph.VertexID{source})
	st.Counters.Reset()

	res := &runResult{state: st}
	states := []*push.State{st}
	var touched []graph.VertexID
	for i := 0; i < slides; i++ {
		batch := window.Slide(batchSize)
		if len(batch) == 0 {
			break
		}
		start := time.Now()
		step := len(batch) // CPU-Base restores and pushes one update at a time
		if a == ApproachBase {
			step = 1
		}
		for lo := 0; lo < len(batch); lo += step {
			touched = push.Restore(g, states, batch[lo:min(lo+step, len(batch))], touched[:0])
			if len(touched) > 0 {
				res.UpdatesApplied += int64(len(touched))
				engine.Run(st, touched)
			}
		}
		res.Latency.Observe(time.Since(start))
	}
	res.Counters = st.Counters.Snapshot()
	return res, nil
}

// runMonteCarlo replays the sliding window against the incremental
// Monte-Carlo estimator.
func (w *Workload) runMonteCarlo(workers, batchSize, slides int, source graph.VertexID) (*runResult, error) {
	window, g := w.NewRun()
	walks := w.params.WalksPerVertex * g.NumVertices()
	if walks < 1 {
		walks = 1
	}
	est, err := montecarlo.New(g, source, montecarlo.Config{
		Alpha:   w.params.Alpha,
		Walks:   walks,
		Seed:    w.params.Seed,
		Workers: workers,
	})
	if err != nil {
		return nil, err
	}
	res := &runResult{}
	for i := 0; i < slides; i++ {
		batch := window.Slide(batchSize)
		if len(batch) == 0 {
			break
		}
		start := time.Now()
		for _, u := range batch {
			apply := est.ApplyInsert
			if u.Op == stream.Delete {
				apply = est.ApplyDelete
			}
			if changed, _, err := apply(u.U, u.V); err == nil && changed {
				res.UpdatesApplied++
			}
		}
		res.Latency.Observe(time.Since(start))
	}
	return res, nil
}

// runApproach dispatches to the push or Monte-Carlo runner.
func (w *Workload) runApproach(a Approach, epsilon float64, batchSize, slides, workers int, source graph.VertexID) (*runResult, error) {
	if workers <= 0 {
		workers = defaultWorkers()
	}
	if a == ApproachMonteCarlo {
		return w.runMonteCarlo(workers, batchSize, slides, source)
	}
	return w.runPush(a, push.VariantOpt, workers, epsilon, batchSize, slides, source)
}
