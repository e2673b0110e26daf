// Concurrent serving: the scenario the Service exists for. A sliding-window
// edge stream mutates the graph through the write pipeline while a crowd of
// query goroutines reads PPR estimates and top-k rankings the whole time —
// and partway through, a new source is added live without pausing either
// side.
//
// Every read is served lock-free from the source's latest converged
// snapshot, so the readers never block on a batch and never see a mid-push
// vector.
//
// Run with:
//
//	go run ./examples/concurrent
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dynppr"
)

func main() {
	// A power-law graph whose edges arrive in random order.
	edges, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Name: "serve", Model: dynppr.ModelRMAT,
		Vertices: 4000, Edges: 60000, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	stream := dynppr.NewStream(edges, 1)
	window, initial := dynppr.NewSlidingWindow(stream, 0.1)
	g := dynppr.GraphFromEdges(initial)
	sources := g.TopDegreeVertices(3)
	// NewService takes ownership of g: capture everything we want from the
	// graph — including the source we will live-add later — before handing
	// it over.
	liveAddSource := g.TopDegreeVertices(10)[9]
	vertexCount := g.NumVertices()

	so := dynppr.DefaultServiceOptions()
	so.Options.Epsilon = 1e-5
	svc, err := dynppr.NewService(g, sources, so)
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()
	fmt.Printf("serving %d sources over %d vertices (window %d edges)\n\n",
		len(sources), vertexCount, window.Size())

	// The read side: a crowd of goroutines issuing queries non-stop.
	const readers = 8
	stop := make(chan struct{})
	var queries atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				all := svc.Sources() // sources can change live
				src := all[rng.Intn(len(all))]
				if rng.Intn(2) == 0 {
					if _, _, err := svc.EstimateInfo(src, dynppr.VertexID(rng.Intn(4000))); err != nil {
						continue // source removed between Sources() and the read
					}
				} else {
					if _, _, err := svc.AppendTopK(nil, src, 10); err != nil {
						continue
					}
				}
				queries.Add(1)
			}
		}(r)
	}

	// The write side: stream the sliding window through the pipeline.
	const (
		batchSize = 200
		slides    = 12
	)
	start := time.Now()
	for i := 0; i < slides; i++ {
		if i == slides/2 {
			// Halfway through, start serving a brand-new source — readers
			// keep going; the source appears once converged.
			if err := svc.UpdateSources(context.Background(), []dynppr.VertexID{liveAddSource}, nil); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  >> live-added source %d (now serving %d sources)\n",
				liveAddSource, len(svc.Sources()))
		}
		batch := window.Slide(batchSize)
		if len(batch) == 0 {
			break
		}
		res, err := svc.ApplyBatch(batch)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("slide %2d: %4d updates in %-10v (%d queries answered so far)\n",
			i+1, res.Applied, res.Latency.Round(time.Microsecond), queries.Load())
	}
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()

	stats := svc.Stats()
	fmt.Printf("\n%d batches (%d updates) streamed while %d queries were served — %.0f queries/sec\n",
		stats.Batches, stats.UpdatesApplied, queries.Load(),
		float64(queries.Load())/elapsed.Seconds())
	fmt.Println("\nfinal serving state:")
	for _, ss := range stats.Sources {
		info, err := svc.Info(ss.Source)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  source %-6d epoch %-3d residual %.1e converged=%t\n",
			ss.Source, info.Epoch, info.MaxResidual, info.Converged())
	}

	// Each snapshot is a coherent converged vector, so rankings read
	// mid-stream are as trustworthy as offline ones.
	top, _, err := svc.AppendTopK(nil, sources[0], 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntop-5 vertices by PPR towards %d:\n", sources[0])
	for _, vs := range top {
		fmt.Printf("  vertex %-6d score %.6f\n", vs.Vertex, vs.Score)
	}
}
