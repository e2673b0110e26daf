// Benchmarks regenerating the paper's evaluation figures (Section 5) and its
// ablations. Each BenchmarkFigN_* runs the harness for that figure on a
// reduced dataset and reports the headline quantity of the figure as a custom
// metric, so `go test -bench=. -benchmem` reproduces the whole evaluation at
// laptop scale. For the full-size tables use `go run ./cmd/dppr-bench`; the
// serving path (HTTP, Service, on-demand, WAL, recovery) is measured by
// benchmark/, not here.
package dynppr_test

import (
	"testing"

	"dynppr"
	"dynppr/internal/bench"
	"dynppr/internal/gen"
	"dynppr/internal/push"
)

// benchParams returns harness parameters sized for benchmarking: one small
// power-law dataset, a handful of slides per measurement.
func benchParams() (bench.Params, []gen.Dataset) {
	p := bench.QuickParams()
	p.Slides = 5
	p.Epsilon = 1e-6
	p.Workers = 0
	datasets := []gen.Dataset{
		{Config: gen.Config{Name: "bench-rmat", Model: gen.RMAT, Vertices: 2000, Edges: 30000, Seed: 7}},
	}
	return p, datasets
}

// BenchmarkFig4_OptimizationEffect regenerates Figure 4: latency of the four
// parallel-push variants. Reported metric: speedup of Opt over Vanilla.
func BenchmarkFig4_OptimizationEffect(b *testing.B) {
	p, ds := benchParams()
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunOptimizationEffect(p, ds)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Variant == "Opt" {
				speedup = r.SpeedupOverVanilla
			}
		}
	}
	b.ReportMetric(speedup, "opt-speedup-vs-vanilla")
}

// BenchmarkFig5_Throughput regenerates Figure 5: streaming throughput of
// every approach. Reported metrics: CPU-MT and CPU-Seq edges/sec at the
// largest batch size.
func BenchmarkFig5_Throughput(b *testing.B) {
	p, ds := benchParams()
	var mt, seq float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunThroughput(p, ds, []bench.Approach{
			bench.ApproachSeq, bench.ApproachMT, bench.ApproachLigra, bench.ApproachMonteCarlo,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Approach {
			case bench.ApproachMT:
				mt = r.EdgesPerSecond
			case bench.ApproachSeq:
				seq = r.EdgesPerSecond
			}
		}
	}
	b.ReportMetric(mt, "mt-edges/sec")
	b.ReportMetric(seq, "seq-edges/sec")
}

// BenchmarkFig6_Epsilon regenerates Figure 6: latency as ε tightens.
func BenchmarkFig6_Epsilon(b *testing.B) {
	p, ds := benchParams()
	p.EpsilonGrid = []float64{1e-4, 1e-6}
	var tight float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunEpsilonSweep(p, ds)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Approach == bench.ApproachMT && r.Epsilon == 1e-6 {
				tight = float64(r.MeanLatency.Microseconds())
			}
		}
	}
	b.ReportMetric(tight, "mt-latency-us@1e-6")
}

// BenchmarkFig7_SourceDegree regenerates Figure 7: latency by source-degree
// bucket.
func BenchmarkFig7_SourceDegree(b *testing.B) {
	p, ds := benchParams()
	var highDeg float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunSourceDegree(p, ds)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Approach == bench.ApproachMT {
				highDeg = float64(r.MeanLatency.Microseconds())
				break
			}
		}
	}
	b.ReportMetric(highDeg, "mt-latency-us-top-bucket")
}

// BenchmarkFig8_BatchSize regenerates Figure 8: latency across batch ratios.
func BenchmarkFig8_BatchSize(b *testing.B) {
	p, ds := benchParams()
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunBatchSize(p, ds)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Approach == bench.ApproachMT && r.Ratio == p.BatchRatios[0] {
				speedup = r.SpeedupOverSeq
			}
		}
	}
	b.ReportMetric(speedup, "mt-speedup-vs-seq@largest-batch")
}

// BenchmarkFig9_Resource regenerates Figure 9: resource-consumption proxies
// across batch sizes. Reported metric: mean frontier occupancy at the largest
// batch size (the warp-occupancy proxy).
func BenchmarkFig9_Resource(b *testing.B) {
	p, ds := benchParams()
	var occupancy float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunResourceProfile(p, ds)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) > 0 {
			occupancy = rows[0].MeanFrontier
		}
	}
	b.ReportMetric(occupancy, "mean-frontier@largest-batch")
}

// BenchmarkFig10_Scalability regenerates Figure 10: throughput versus worker
// count. Reported metric: speedup of the largest worker count over one
// worker.
func BenchmarkFig10_Scalability(b *testing.B) {
	p, ds := benchParams()
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunScalability(p, ds)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) > 0 {
			speedup = rows[len(rows)-1].SpeedupOverOneWorker
		}
	}
	b.ReportMetric(speedup, "speedup-max-vs-1-worker")
}

// ---------------------------------------------------------------------------
// Ablation and micro benchmarks on the public API.

// buildBenchWorkload generates a 3000-vertex / 60000-edge R-MAT universe and
// seeds the graph with the first 90% of its edges; the remainder becomes the
// mutation batch.
func buildBenchWorkload(b *testing.B) ([]dynppr.Edge, *dynppr.Graph, dynppr.VertexID) {
	b.Helper()
	const edges = 60000
	all, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Name: "micro", Model: dynppr.ModelRMAT, Vertices: 3000, Edges: edges, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	const split = edges * 9 / 10
	g := dynppr.GraphFromEdges(all[:split])
	source := g.TopDegreeVertices(1)[0]
	return all[split:], g, source
}

func benchmarkTrackerBatch(b *testing.B, opts dynppr.Options) {
	inserts, g, source := buildBenchWorkload(b)
	tracker, err := dynppr.NewTracker(g, source, opts)
	if err != nil {
		b.Fatal(err)
	}
	// Build one insert batch and one compensating delete batch so the graph
	// returns to its original state every two iterations; this keeps the
	// measured work stable across b.N.
	insertBatch := make(dynppr.Batch, 0, len(inserts))
	deleteBatch := make(dynppr.Batch, 0, len(inserts))
	for _, e := range inserts {
		insertBatch = append(insertBatch, dynppr.Update{U: e.U, V: e.V, Op: dynppr.Insert})
		deleteBatch = append(deleteBatch, dynppr.Update{U: e.U, V: e.V, Op: dynppr.Delete})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			tracker.ApplyBatch(insertBatch)
		} else {
			tracker.ApplyBatch(deleteBatch)
		}
	}
	b.ReportMetric(float64(len(insertBatch)), "updates/batch")
}

// BenchmarkAblation_ParallelLoss compares the vanilla parallel push against
// the sequential push on identical batches — the runtime counterpart of
// Lemma 4.
func BenchmarkAblation_ParallelLoss(b *testing.B) {
	b.Run("sequential", func(b *testing.B) {
		opts := dynppr.DefaultOptions()
		opts.Engine = dynppr.EngineSequential
		opts.Epsilon = 1e-6
		benchmarkTrackerBatch(b, opts)
	})
	b.Run("parallel-vanilla", func(b *testing.B) {
		opts := dynppr.DefaultOptions()
		opts.Variant = push.VariantVanilla
		opts.Epsilon = 1e-6
		benchmarkTrackerBatch(b, opts)
	})
	b.Run("parallel-opt", func(b *testing.B) {
		opts := dynppr.DefaultOptions()
		opts.Variant = dynppr.VariantOpt
		opts.Epsilon = 1e-6
		benchmarkTrackerBatch(b, opts)
	})
}

// BenchmarkAblation_SortAggregate compares the atomic neighbor-update method
// against the sorting-and-aggregate alternative the paper describes and
// rejects in Section 3.1 (footnote 2) — measured here at the engine level on
// cold-start convergence, where frontiers are largest.
func BenchmarkAblation_SortAggregate(b *testing.B) {
	_, g, source := buildBenchWorkload(b)
	cfg := push.Config{Alpha: 0.15, Epsilon: 1e-6}
	run := func(b *testing.B, engine push.Engine) {
		b.Helper()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := push.NewState(g.Clone(), source, cfg)
			if err != nil {
				b.Fatal(err)
			}
			engine.Run(st, []dynppr.VertexID{source})
		}
	}
	b.Run("atomic", func(b *testing.B) { run(b, push.NewParallel(push.VariantVanilla, 0)) })
	b.Run("sort-aggregate", func(b *testing.B) { run(b, push.NewSortAggregate(0)) })
}

// BenchmarkTrackerColdStart measures from-scratch convergence on a static
// graph (the d/ε term of the complexity bound).
func BenchmarkTrackerColdStart(b *testing.B) {
	_, g, source := buildBenchWorkload(b)
	opts := dynppr.DefaultOptions()
	opts.Epsilon = 1e-6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dynppr.NewTracker(g.Clone(), source, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphMutation measures the raw dynamic-graph substrate.
func BenchmarkGraphMutation(b *testing.B) {
	edges, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Name: "mut", Model: dynppr.ModelErdosRenyi, Vertices: 10000, Edges: 100000, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	g := dynppr.NewGraph(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		if g.HasEdge(e.U, e.V) {
			if err := g.RemoveEdge(e.U, e.V); err != nil {
				b.Fatal(err)
			}
		} else if _, err := g.AddEdge(e.U, e.V); err != nil {
			b.Fatal(err)
		}
	}
}
