// Ablation and micro benchmarks on the public API. The paper's evaluation
// figures (Section 5) have one driver, `go run ./cmd/dppr-bench -experiment
// figN`, and the serving path (HTTP, Service, on-demand, WAL, recovery) is
// measured by benchmark/, not here.
package dynppr_test

import (
	"testing"

	"dynppr"
	"dynppr/internal/push"
)

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
