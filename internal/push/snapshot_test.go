package push

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dynppr/internal/graph"
)

func snapshotTestState(t *testing.T) *State {
	t.Helper()
	g := graph.New(0)
	for i := 0; i < 4; i++ {
		if _, err := g.AddEdge(graph.VertexID(i), graph.VertexID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := NewState(g, 4, Config{Alpha: 0.15, Epsilon: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	NewSequential().Run(st, []graph.VertexID{4})
	return st
}

func TestSnapshotSlotEmpty(t *testing.T) {
	sl := NewSnapshotSlot()
	if sl.Acquire() != nil {
		t.Fatal("empty slot must return nil")
	}
	if sl.Epoch() != 0 {
		t.Fatal("empty slot epoch must be 0")
	}
}

func TestSnapshotPublishAndRead(t *testing.T) {
	st := snapshotTestState(t)
	sl := NewSnapshotSlot()
	sl.Publish(st)

	s := sl.Acquire()
	if s == nil {
		t.Fatal("acquire after publish returned nil")
	}
	defer s.Release()
	if s.Epoch() != 1 || sl.Epoch() != 1 {
		t.Fatalf("epoch = %d / %d, want 1", s.Epoch(), sl.Epoch())
	}
	if s.Source() != 4 {
		t.Fatalf("source = %d, want 4", s.Source())
	}
	if s.MaxResidual() > s.Epsilon() {
		t.Fatalf("snapshot not converged: maxResidual=%v", s.MaxResidual())
	}
	if s.NumVertices() != st.NumVertices() {
		t.Fatalf("vertices = %d, want %d", s.NumVertices(), st.NumVertices())
	}
	want := st.Estimates()
	for v, w := range want {
		if got := s.Estimate(graph.VertexID(v)); got != w {
			t.Fatalf("estimate of %d = %v, want %v", v, got, w)
		}
	}
	if s.Estimate(-1) != 0 || s.Estimate(1000) != 0 {
		t.Fatal("out-of-range estimates must be 0")
	}
	est := s.Estimates()
	est[0] = 42 // the copy must not alias the snapshot
	if s.Estimate(0) == 42 {
		t.Fatal("Estimates must return a copy")
	}
}

func TestSnapshotDoubleBufferAlternates(t *testing.T) {
	st := snapshotTestState(t)
	sl := NewSnapshotSlot()
	a := sl.Publish(st)
	b := sl.Publish(st)
	c := sl.Publish(st)
	if a == b {
		t.Fatal("consecutive publishes must use different buffers")
	}
	if a != c {
		t.Fatal("third publish must recycle the first buffer")
	}
	if c.Epoch() != 3 {
		t.Fatalf("epoch = %d, want 3", c.Epoch())
	}
}

// bitsHash is an FNV-1a hash over the bits of a snapshot's estimates.
func bitsHash(s *Snapshot) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range s.estimates {
		h ^= math.Float64bits(x)
		h *= 1099511628211
	}
	return h
}

// TestSnapshotConcurrentReadersWhilePublishing hammers Acquire/Release from
// several goroutines while the owner keeps republishing a mutating state.
// Every read must observe a converged snapshot with a monotone epoch. A
// further reader holds snapshots hand over hand: it acquires the newest one
// before releasing the one it holds, so each snapshot it holds spans the end
// of the publication that made it (which recycles the vector published
// before) and the start of the next one (which swaps it out and waits for
// the hold); the bits it hashed on acquiring must not change meanwhile. Run
// with -race to check the publication protocol.
func TestSnapshotConcurrentReadersWhilePublishing(t *testing.T) {
	st := snapshotTestState(t)
	sl := NewSnapshotSlot()
	sl.Publish(st)
	engine := NewSequential()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEpoch uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := sl.Acquire()
				if s == nil {
					t.Error("nil snapshot after first publish")
					return
				}
				if s.Epoch() < lastEpoch {
					t.Errorf("epoch went backwards: %d after %d", s.Epoch(), lastEpoch)
				}
				lastEpoch = s.Epoch()
				if s.MaxResidual() > s.Epsilon() {
					t.Errorf("read a non-converged snapshot: maxResidual=%v", s.MaxResidual())
				}
				var sum float64
				for _, x := range s.estimates {
					sum += x
				}
				if sum <= 0 {
					t.Errorf("snapshot estimates sum %v, want > 0", sum)
				}
				s.Release()
				runtime.Gosched()
			}
		}()
	}

	ready := make(chan struct{})
	var spans atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := sl.Acquire()
		h := bitsHash(s)
		close(ready)
		defer func() {
			if bitsHash(s) != h {
				t.Errorf("held snapshot of epoch %d changed", s.Epoch())
			}
			s.Release()
		}()
		// Each hold stalls the writer until this goroutine is scheduled
		// again, so a few spans are enough.
		for spans.Load() < 3 {
			for sl.Epoch() == s.Epoch() {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
			// The publication that swapped s out waits for this hold, so
			// the newest snapshot is the one it published.
			next := sl.Acquire()
			nextHash := bitsHash(next)
			if bitsHash(s) != h {
				t.Errorf("held snapshot of epoch %d changed", s.Epoch())
			}
			if s.Epoch() > 1 {
				spans.Add(1)
			}
			s.Release()
			s, h = next, nextHash
		}
	}()
	<-ready

	// The writer keeps perturbing the graph and republishing after each
	// converged push.
	for i := 0; i < 300; i++ {
		u := graph.VertexID(5 + i%7)
		if i%2 == 0 {
			if _, err := st.ApplyInsert(u, 4); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := st.ApplyDelete(u-1, 4); err != nil {
				t.Fatal(err)
			}
		}
		engine.Run(st, []graph.VertexID{u, u - 1})
		sl.Publish(st)
	}
	close(stop)
	wg.Wait()
	if spans.Load() < 2 {
		t.Fatalf("the holding reader held %d snapshots across two publications, want ≥ 2", spans.Load())
	}
}
