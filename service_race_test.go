package dynppr_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"dynppr"
)

// dedupeEdges removes duplicate (u,v) pairs, preserving first occurrence.
func dedupeEdges(edges []dynppr.Edge) []dynppr.Edge {
	seen := make(map[dynppr.Edge]struct{}, len(edges))
	out := edges[:0:0]
	for _, e := range edges {
		if _, dup := seen[e]; dup {
			continue
		}
		seen[e] = struct{}{}
		out = append(out, e)
	}
	return out
}

// TestServiceConcurrentStress drives the Service the way the north-star
// workload does: several writer goroutines stream insert/delete batches
// through ApplyBatch while many reader goroutines hammer Estimate / TopK /
// EstimatesInfo and a churn goroutine adds and removes sources — all at
// once. Run under -race this validates the snapshot publication protocol;
// the assertions validate the serving contract:
//
//   - every read observes a converged snapshot (MaxResidual ≤ ε),
//   - per source, snapshot epochs never go backwards,
//   - reads of a removed source fail with ErrUnknownSource, never with a
//     torn result.
//
// Each writer owns a disjoint slice of the edge universe (it inserts its
// edges, then deletes half of them), so the final graph is deterministic no
// matter how the pipeline interleaves the writers — which lets the test end
// by checking the served snapshots against an offline Tracker on the exact
// final graph.
//
// It runs at PoolWorkers 1 (the pipeline goroutine pushes and publishes every
// source itself) and 4 (as many claimers as stable sources, so publishers
// change from batch to batch while the readers hold snapshots).
func TestServiceConcurrentStress(t *testing.T) {
	for _, pool := range []int{1, 4} {
		t.Run(fmt.Sprintf("pool=%d", pool), func(t *testing.T) { serviceConcurrentStress(t, pool) })
	}
}

func serviceConcurrentStress(t *testing.T, pool int) {
	const (
		epsilon    = 1e-4
		numReaders = 6
		numWriters = 3
		batchSize  = 60
	)
	raw, err := dynppr.GenerateEdges(dynppr.SyntheticConfig{
		Model: dynppr.ModelRMAT, Vertices: 400, Edges: 2400, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	edges := dedupeEdges(raw)
	initial := edges[:len(edges)/2]
	rest := edges[len(edges)/2:]
	chunk := len(rest) / numWriters

	g := dynppr.GraphFromEdges(initial)
	stable := g.TopDegreeVertices(4) // never removed

	so := dynppr.DefaultServiceOptions()
	so.Options.Epsilon = epsilon
	so.PoolWorkers = pool
	svc, err := dynppr.NewService(g, stable, so)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	stop := make(chan struct{})
	var reads atomic.Int64
	var readerWG sync.WaitGroup

	for r := 0; r < numReaders; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			lastEpoch := make(map[dynppr.VertexID]uint64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				src := stable[rng.Intn(len(stable))]
				switch rng.Intn(3) {
				case 0:
					est, info, err := svc.EstimatesInfo(src)
					if err != nil {
						t.Errorf("EstimatesInfo(%d): %v", src, err)
						return
					}
					if !info.Converged() {
						t.Errorf("read a non-converged snapshot for %d: residual %v > ε %v",
							src, info.MaxResidual, info.Epsilon)
						return
					}
					if info.Epoch < lastEpoch[src] {
						t.Errorf("source %d epoch went backwards: %d after %d", src, info.Epoch, lastEpoch[src])
						return
					}
					lastEpoch[src] = info.Epoch
					if len(est) != info.Vertices {
						t.Errorf("source %d: vector length %d vs info %d", src, len(est), info.Vertices)
						return
					}
				case 1:
					if _, _, err := svc.EstimateInfo(src, dynppr.VertexID(rng.Intn(400))); err != nil {
						t.Errorf("Estimate(%d): %v", src, err)
						return
					}
				default:
					top, _, err := svc.AppendTopK(nil, src, 5)
					if err != nil || len(top) == 0 {
						t.Errorf("TopK(%d): %v (len %d)", src, err, len(top))
						return
					}
				}
				reads.Add(1)
			}
		}(r)
	}

	// Churn goroutine: add a source, query it, remove it again — while the
	// writers and readers run.
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		extra := []dynppr.VertexID{390, 391, 392}
		for i := 0; i < 4; i++ {
			v := extra[i%len(extra)]
			if err := svc.UpdateSources(context.Background(), []dynppr.VertexID{v}, nil); err != nil {
				t.Errorf("UpdateSources add %d: %v", v, err)
				return
			}
			if _, _, err := svc.EstimateInfo(v, 0); err != nil {
				t.Errorf("Estimate of fresh source %d: %v", v, err)
				return
			}
			if err := svc.UpdateSources(context.Background(), nil, []dynppr.VertexID{v}); err != nil {
				t.Errorf("UpdateSources remove %d: %v", v, err)
				return
			}
			if _, _, err := svc.EstimateInfo(v, 0); !errors.Is(err, dynppr.ErrUnknownSource) {
				t.Errorf("read of removed source %d: %v", v, err)
				return
			}
		}
	}()

	var writerWG sync.WaitGroup
	for w := 0; w < numWriters; w++ {
		mine := rest[w*chunk : (w+1)*chunk]
		writerWG.Add(1)
		go func(mine []dynppr.Edge) {
			defer writerWG.Done()
			apply := func(lo, hi int, op dynppr.Op) bool {
				for ; lo < hi; lo += batchSize {
					end := lo + batchSize
					if end > hi {
						end = hi
					}
					b := make(dynppr.Batch, 0, end-lo)
					for _, e := range mine[lo:end] {
						b = append(b, dynppr.Update{U: e.U, V: e.V, Op: op})
					}
					if _, err := svc.ApplyBatch(b); err != nil {
						t.Errorf("ApplyBatch: %v", err)
						return false
					}
				}
				return true
			}
			// Insert the whole chunk, then delete its first half again.
			if apply(0, len(mine), dynppr.Insert) {
				apply(0, len(mine)/2, dynppr.Delete)
			}
		}(mine)
	}
	writerWG.Wait()
	<-churnDone
	close(stop)
	readerWG.Wait()

	if reads.Load() == 0 {
		t.Fatal("readers performed no reads")
	}
	stats := svc.Stats()
	if stats.Batches == 0 || stats.UpdatesApplied == 0 {
		t.Fatalf("stats recorded no writes: %+v", stats)
	}
	for _, ss := range stats.Sources {
		if ss.MaxResidual > epsilon {
			t.Fatalf("source %d final residual %v exceeds ε", ss.Source, ss.MaxResidual)
		}
	}

	// The final snapshots are not just converged but accurate: every writer
	// kept the second half of its chunk, so the final graph is known exactly.
	finalEdges := append([]dynppr.Edge(nil), initial...)
	for w := 0; w < numWriters; w++ {
		mine := rest[w*chunk : (w+1)*chunk]
		finalEdges = append(finalEdges, mine[len(mine)/2:]...)
	}
	opts := dynppr.DefaultOptions()
	opts.Epsilon = epsilon
	for _, src := range stable {
		tr, err := dynppr.NewTracker(dynppr.GraphFromEdges(finalEdges), src, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := svc.EstimatesInfo(src)
		if err != nil {
			t.Fatal(err)
		}
		want := tr.Estimates()
		for v := 0; v < len(want) && v < len(got); v++ {
			d := got[v] - want[v]
			if d < 0 {
				d = -d
			}
			if d > 2*epsilon {
				t.Fatalf("final estimate of %d towards %d: service %v vs offline %v", v, src, got[v], want[v])
			}
		}
	}
}
