package dynppr_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dynppr"
)

// overloadBatch builds a batch of n pseudo-random inserts that keeps the
// push pipeline busy for a macroscopic amount of time.
func overloadBatch(n, vertices int, seed int64) dynppr.Batch {
	b := make(dynppr.Batch, n)
	x := uint64(seed)*2862933555777941757 + 3037000493
	for i := range b {
		x = x*2862933555777941757 + 3037000493
		u := dynppr.VertexID(x % uint64(vertices))
		x = x*2862933555777941757 + 3037000493
		v := dynppr.VertexID(x % uint64(vertices))
		b[i] = dynppr.Update{U: u, V: v, Op: dynppr.Insert}
	}
	return b
}

// TestServiceBoundedAdmission exercises the overload surface: with a
// depth-1 queue saturated by slow batches, ApplyBatchCtx under a done and
// under an expired context must shed with ErrOverloaded (and count the
// sheds), while admission succeeds again once the queue drains — even with
// an already-cancelled context, which only bounds the wait for a slot.
func TestServiceBoundedAdmission(t *testing.T) {
	edges := serviceTestEdges(t, dynppr.ModelRMAT, 8000, 48000, 5)
	g := dynppr.GraphFromEdges(edges)
	sources := g.TopDegreeVertices(2)
	so := dynppr.DefaultServiceOptions()
	so.Options.Epsilon = 1e-6
	so.PoolWorkers = 2
	so.QueueDepth = 1
	svc, err := dynppr.NewService(g, sources, so)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	if qs := svc.Queue(); qs.QueueCap != 1 || qs.QueueDepth != 0 || qs.Shed != 0 {
		t.Fatalf("initial queue stats: %+v", qs)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	// Saturate: one heavy batch runs on the pipeline while a second fills
	// the single queue slot.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			if _, err := svc.ApplyBatch(overloadBatch(8000, 8000, seed)); err != nil {
				t.Errorf("blocking ApplyBatch under load: %v", err)
			}
		}(int64(i + 1))
	}

	// The saturation window is timing-dependent, so retry the shed probe a
	// few times: each attempt waits for the queue slot to fill and then
	// expects the non-blocking admission to bounce.
	shedSeen := false
	deadline := time.Now().Add(10 * time.Second)
	for !shedSeen && time.Now().Before(deadline) {
		if svc.Queue().QueueDepth < 1 {
			time.Sleep(200 * time.Microsecond)
			continue
		}
		_, err := svc.ApplyBatchCtx(cancelled, overloadBatch(4, 8000, 99))
		if err == nil {
			continue // the queue drained between the poll and the try
		}
		if !errors.Is(err, dynppr.ErrOverloaded) {
			t.Fatalf("ApplyBatchCtx with done context on full queue: %v", err)
		}
		shedSeen = true

		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		_, err = svc.ApplyBatchCtx(ctx, overloadBatch(4, 8000, 98))
		cancel()
		if err != nil && !errors.Is(err, dynppr.ErrOverloaded) {
			t.Fatalf("ApplyBatchCtx on full queue: %v", err)
		}
	}
	wg.Wait()
	if !shedSeen {
		t.Fatal("never observed a shed on a saturated depth-1 queue")
	}
	if qs := svc.Queue(); qs.Shed < 1 {
		t.Fatalf("Queue().Shed = %d, want >= 1", qs.Shed)
	}
	if st := svc.Stats(); st.Shed < 1 || st.QueueCap != 1 {
		t.Fatalf("Stats shed=%d cap=%d", st.Shed, st.QueueCap)
	}

	// A done context still admits instantly when a slot is free: the
	// deadline bounds the wait, not the work. The heavy batches started a
	// background compaction, which admits its install on its own clock —
	// let it land first, so the slot is known to be free.
	for deadline := time.Now().Add(10 * time.Second); svc.Stats().Storage.CompactionInFlight || svc.Queue().QueueDepth > 0; {
		if time.Now().After(deadline) {
			t.Fatal("background compaction never finished")
		}
		time.Sleep(200 * time.Microsecond)
	}
	if _, err := svc.ApplyBatchCtx(cancelled, overloadBatch(4, 8000, 97)); err != nil {
		t.Fatalf("ApplyBatchCtx with free queue and done context: %v", err)
	}
	if _, err := svc.ApplyBatchCtx(cancelled, overloadBatch(4, 8000, 96)); err != nil {
		t.Fatalf("ApplyBatchCtx with free queue and done context: %v", err)
	}

	// The context-aware source mutators share the admission path.
	ctx, cancelAdd := context.WithTimeout(context.Background(), time.Second)
	defer cancelAdd()
	if err := svc.UpdateSources(ctx, []dynppr.VertexID{7}, nil); err != nil {
		t.Fatalf("UpdateSources add: %v", err)
	}
	if err := svc.UpdateSources(ctx, nil, []dynppr.VertexID{7}); err != nil {
		t.Fatalf("UpdateSources remove: %v", err)
	}

	// Closed beats overloaded.
	svc.Close()
	if _, err := svc.ApplyBatchCtx(cancelled, overloadBatch(4, 8000, 95)); !errors.Is(err, dynppr.ErrServiceClosed) {
		t.Fatalf("ApplyBatchCtx after Close: %v", err)
	}
}
