package bench

import (
	"strconv"
	"time"

	"dynppr/internal/fp"
	"dynppr/internal/gen"
	"dynppr/internal/power"
	"dynppr/internal/push"
)

func defaultWorkers() int { return fp.DefaultWorkers() }

// ---------------------------------------------------------------------------
// Figure 4 — effect of the parallel-push optimizations.

// OptimizationRow is one bar of Figure 4: the mean slide latency of one
// parallel-push variant on one dataset.
type OptimizationRow struct {
	Dataset      string
	Variant      string
	MeanLatency  time.Duration
	Pushes       int64
	Propagations int64
	DupAttempts  int64
	// SpeedupOverVanilla is the Vanilla latency divided by this variant's
	// latency on the same dataset (1.0 for Vanilla itself).
	SpeedupOverVanilla float64
}

// RunOptimizationEffect measures the four Table-3 variants on every dataset.
func RunOptimizationEffect(p Params, datasets []gen.Dataset) ([]OptimizationRow, error) {
	variants := []push.Variant{push.VariantOpt, push.VariantEager, push.VariantDupDetect, push.VariantVanilla}
	var rows []OptimizationRow
	for _, d := range datasets {
		w, err := BuildWorkload(d, p)
		if err != nil {
			return nil, err
		}
		batch := w.BatchSize(p.DefaultBatchRatio)
		perVariant := make(map[string]*runResult, len(variants))
		for _, v := range variants {
			res, err := w.runPush(ApproachMT, v, p.Workers, p.Epsilon, batch, p.Slides, w.Source)
			if err != nil {
				return nil, err
			}
			perVariant[v.String()] = res
		}
		vanilla := perVariant[push.VariantVanilla.String()].MeanLatency()
		for _, v := range variants {
			res := perVariant[v.String()]
			speedup := 0.0
			if res.MeanLatency() > 0 {
				speedup = float64(vanilla) / float64(res.MeanLatency())
			}
			rows = append(rows, OptimizationRow{
				Dataset:            d.Name,
				Variant:            v.String(),
				MeanLatency:        res.MeanLatency(),
				Pushes:             res.Counters.Pushes,
				Propagations:       res.Counters.Propagations,
				DupAttempts:        res.Counters.DuplicateAttempts,
				SpeedupOverVanilla: speedup,
			})
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 5 — streaming throughput of all approaches across batch sizes.

// ThroughputRow is one point of Figure 5.
type ThroughputRow struct {
	Dataset   string
	Approach  Approach
	BatchSize int
	// EdgesPerSecond is the number of effective edge updates consumed per
	// second of processing time.
	EdgesPerSecond float64
	MeanLatency    time.Duration
}

// RunThroughput measures stream throughput for every approach and batch
// ratio. The Base approach is only run at the smallest batch ratio (its cost
// is per-update, independent of batching) to keep runtime bounded, matching
// how the paper drops it from later figures.
func RunThroughput(p Params, datasets []gen.Dataset, approaches []Approach) ([]ThroughputRow, error) {
	if approaches == nil {
		approaches = AllApproaches()
	}
	var rows []ThroughputRow
	for _, d := range datasets {
		w, err := BuildWorkload(d, p)
		if err != nil {
			return nil, err
		}
		for _, ratio := range p.BatchRatios {
			batch := w.BatchSize(ratio)
			for _, a := range approaches {
				if a == ApproachBase && ratio != p.BatchRatios[len(p.BatchRatios)-1] {
					continue
				}
				res, err := w.runApproach(a, p.Epsilon, batch, p.Slides, p.Workers, w.Source)
				if err != nil {
					return nil, err
				}
				rows = append(rows, ThroughputRow{
					Dataset:        d.Name,
					Approach:       a,
					BatchSize:      batch,
					EdgesPerSecond: res.Throughput(),
					MeanLatency:    res.MeanLatency(),
				})
			}
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 6 — effect of the error threshold ε.

// EpsilonRow is one point of Figure 6.
type EpsilonRow struct {
	Dataset     string
	Approach    Approach
	Epsilon     float64
	MeanLatency time.Duration
	Pushes      int64
}

// RunEpsilonSweep measures the sequential and parallel approaches across the
// ε grid.
func RunEpsilonSweep(p Params, datasets []gen.Dataset) ([]EpsilonRow, error) {
	approaches := []Approach{ApproachSeq, ApproachMT}
	var rows []EpsilonRow
	for _, d := range datasets {
		w, err := BuildWorkload(d, p)
		if err != nil {
			return nil, err
		}
		batch := w.BatchSize(p.DefaultBatchRatio)
		for _, eps := range p.EpsilonGrid {
			for _, a := range approaches {
				res, err := w.runApproach(a, eps, batch, p.Slides, p.Workers, w.Source)
				if err != nil {
					return nil, err
				}
				rows = append(rows, EpsilonRow{
					Dataset:     d.Name,
					Approach:    a,
					Epsilon:     eps,
					MeanLatency: res.MeanLatency(),
					Pushes:      res.Counters.Pushes,
				})
			}
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 7 — effect of the source vertex degree.

// SourceRow is one point of Figure 7.
type SourceRow struct {
	Dataset      string
	Approach     Approach
	Bucket       string
	SourceDegree int
	MeanLatency  time.Duration
}

// RunSourceDegree measures latency with the source drawn from the top-k
// out-degree buckets of Params.SourceBuckets (the paper's top-10/1K/1M).
func RunSourceDegree(p Params, datasets []gen.Dataset) ([]SourceRow, error) {
	approaches := []Approach{ApproachSeq, ApproachMT}
	var rows []SourceRow
	for _, d := range datasets {
		w, err := BuildWorkload(d, p)
		if err != nil {
			return nil, err
		}
		_, g := w.NewRun()
		batch := w.BatchSize(p.DefaultBatchRatio)
		for _, bucket := range p.SourceBuckets {
			top := g.TopDegreeVertices(bucket)
			if len(top) == 0 {
				continue
			}
			// Deterministic pick: the last vertex of the bucket, i.e. the
			// lowest-degree member, so buckets differ meaningfully.
			source := top[len(top)-1]
			for _, a := range approaches {
				res, err := w.runApproach(a, p.Epsilon, batch, p.Slides, p.Workers, source)
				if err != nil {
					return nil, err
				}
				rows = append(rows, SourceRow{
					Dataset:      d.Name,
					Approach:     a,
					Bucket:       bucketName(bucket),
					SourceDegree: g.OutDegree(source),
					MeanLatency:  res.MeanLatency(),
				})
			}
		}
	}
	return rows, nil
}

func bucketName(k int) string {
	switch {
	case k >= 1_000_000:
		return "top-1M"
	case k >= 1_000:
		return "top-1K"
	default:
		return "top-" + strconv.Itoa(k)
	}
}

// ---------------------------------------------------------------------------
// Figure 8 — effect of the batch size.

// BatchSizeRow is one point of Figure 8.
type BatchSizeRow struct {
	Dataset     string
	Approach    Approach
	Ratio       float64
	BatchSize   int
	MeanLatency time.Duration
	// SpeedupOverSeq is CPU-Seq latency / this approach latency at the same
	// batch size.
	SpeedupOverSeq float64
}

// RunBatchSize measures per-slide latency across the batch-ratio grid.
func RunBatchSize(p Params, datasets []gen.Dataset) ([]BatchSizeRow, error) {
	var rows []BatchSizeRow
	for _, d := range datasets {
		w, err := BuildWorkload(d, p)
		if err != nil {
			return nil, err
		}
		for _, ratio := range p.BatchRatios {
			batch := w.BatchSize(ratio)
			seq, err := w.runApproach(ApproachSeq, p.Epsilon, batch, p.Slides, p.Workers, w.Source)
			if err != nil {
				return nil, err
			}
			mt, err := w.runApproach(ApproachMT, p.Epsilon, batch, p.Slides, p.Workers, w.Source)
			if err != nil {
				return nil, err
			}
			for _, rec := range []struct {
				a   Approach
				res *runResult
			}{{ApproachSeq, seq}, {ApproachMT, mt}} {
				speedup := 0.0
				if rec.res.MeanLatency() > 0 {
					speedup = float64(seq.MeanLatency()) / float64(rec.res.MeanLatency())
				}
				rows = append(rows, BatchSizeRow{
					Dataset:        d.Name,
					Approach:       rec.a,
					Ratio:          ratio,
					BatchSize:      batch,
					MeanLatency:    rec.res.MeanLatency(),
					SpeedupOverSeq: speedup,
				})
			}
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 9 — resource consumption proxies.

// ResourceRow is one point of Figure 9: software counterparts of the paper's
// hardware profiling metrics, for the parallel approach at one batch size.
type ResourceRow struct {
	Dataset   string
	BatchSize int
	// MeanFrontier is the average frontier occupancy per push round — the
	// proxy for achieved warp occupancy (WO).
	MeanFrontier float64
	// PeakFrontier is the largest frontier observed.
	PeakFrontier int64
	// RandomAccessesPerUpdate approximates irregular memory traffic per edge
	// update — the proxy for global-load efficiency / cache miss rates. Each
	// propagation updates one neighbor's residual, one irregular access, so
	// it is Propagations per update.
	RandomAccessesPerUpdate float64
	// AtomicsPerUpdate is the number of atomic residual updates per edge
	// update — the proxy for cycles stalled on synchronization.
	AtomicsPerUpdate float64
	// Iterations is the number of push rounds executed.
	Iterations int64
}

// RunResourceProfile gathers the counter-based resource proxies across the
// batch-ratio grid.
func RunResourceProfile(p Params, datasets []gen.Dataset) ([]ResourceRow, error) {
	var rows []ResourceRow
	for _, d := range datasets {
		w, err := BuildWorkload(d, p)
		if err != nil {
			return nil, err
		}
		for _, ratio := range p.BatchRatios {
			batch := w.BatchSize(ratio)
			res, err := w.runApproach(ApproachMT, p.Epsilon, batch, p.Slides, p.Workers, w.Source)
			if err != nil {
				return nil, err
			}
			updates := float64(res.UpdatesApplied)
			if updates == 0 {
				updates = 1
			}
			rows = append(rows, ResourceRow{
				Dataset:                 d.Name,
				BatchSize:               batch,
				MeanFrontier:            res.Counters.MeanFrontier(),
				PeakFrontier:            res.Counters.FrontierPeak,
				RandomAccessesPerUpdate: float64(res.Counters.Propagations) / updates,
				AtomicsPerUpdate:        float64(res.Counters.AtomicAdds) / updates,
				Iterations:              res.Counters.Iterations,
			})
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 10 — scalability with the number of cores.

// ScalabilityRow is one point of Figure 10.
type ScalabilityRow struct {
	Dataset        string
	Workers        int
	EdgesPerSecond float64
	// SpeedupOverOneWorker is throughput relative to the single-worker run on
	// the same dataset.
	SpeedupOverOneWorker float64
}

// RunScalability sweeps the worker count for the parallel approach.
func RunScalability(p Params, datasets []gen.Dataset) ([]ScalabilityRow, error) {
	var rows []ScalabilityRow
	for _, d := range datasets {
		w, err := BuildWorkload(d, p)
		if err != nil {
			return nil, err
		}
		batch := w.BatchSize(p.DefaultBatchRatio)
		var base float64
		for _, workers := range p.WorkerGrid {
			res, err := w.runPush(ApproachMT, push.VariantOpt, workers, p.Epsilon, batch, p.Slides, w.Source)
			if err != nil {
				return nil, err
			}
			tp := res.Throughput()
			if workers == p.WorkerGrid[0] || base == 0 {
				base = tp
			}
			speedup := 0.0
			if base > 0 {
				speedup = tp / base
			}
			rows = append(rows, ScalabilityRow{
				Dataset:              d.Name,
				Workers:              workers,
				EdgesPerSecond:       tp,
				SpeedupOverOneWorker: speedup,
			})
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Accuracy report (not a paper figure; `dppr-bench -experiment accuracy`
// prints it to document the ε-guarantee holding end to end on every
// dataset).

// AccuracyRow records the measured worst-case estimation error after a full
// experiment run on one dataset.
type AccuracyRow struct {
	Dataset  string
	Approach Approach
	Epsilon  float64
	MaxError float64
}

// RunAccuracy replays a short sliding-window run and compares the final
// estimate vector against the dense oracle.
func RunAccuracy(p Params, datasets []gen.Dataset) ([]AccuracyRow, error) {
	var rows []AccuracyRow
	for _, d := range datasets {
		w, err := BuildWorkload(d, p)
		if err != nil {
			return nil, err
		}
		batch := w.BatchSize(p.DefaultBatchRatio)
		for _, a := range []Approach{ApproachBase, ApproachSeq, ApproachMT, ApproachLigra} {
			maxErr, err := w.measureAccuracy(a, p, batch)
			if err != nil {
				return nil, err
			}
			rows = append(rows, AccuracyRow{Dataset: d.Name, Approach: a, Epsilon: p.Epsilon, MaxError: maxErr})
		}
	}
	return rows, nil
}

// measureAccuracy replays the run of approach a and returns its final
// estimate vector's error against the dense oracle.
func (w *Workload) measureAccuracy(a Approach, p Params, batchSize int) (float64, error) {
	res, err := w.runPush(a, push.VariantOpt, p.Workers, p.Epsilon, batchSize, p.Slides, w.Source)
	if err != nil {
		return 0, err
	}
	st := res.state
	return power.ExactError(st.Graph(), st.Source(), p.Alpha, st.Estimates())
}
