package push

import (
	"sync/atomic"
	"time"

	"dynppr/internal/graph"
)

// Snapshot is an immutable, converged copy of one source's estimate vector,
// published by a push worker after the engine has driven every residual
// within ε. Readers obtain a Snapshot from a SnapshotSlot and may read it
// freely: its contents never change while it is published.
//
// A Snapshot additionally records the epoch (how many publications preceded
// it) and the maximum absolute residual measured at publication time, so a
// reader can verify the convergence contract (MaxResidual ≤ ε) without
// touching the live, mutating state.
type Snapshot struct {
	source      graph.VertexID
	epoch       uint64
	estimates   []float64
	maxResidual float64
	epsilon     float64

	// top is the exact Top-K ranking of estimates (descending, ties by
	// ascending vertex id), copied from the served prefix of the slot's
	// incrementally maintained index at publication. Its length is
	// min(index capacity, NumVertices), so any AppendTopK read with
	// k ≤ len(top) is served in O(k) without scanning the vector.
	top []VertexScore

	// readers counts in-flight readers of this snapshot; the publisher
	// waits for it to drain before recycling the buffer.
	readers atomic.Int64
}

// Source returns the source vertex the snapshot belongs to.
func (s *Snapshot) Source() graph.VertexID { return s.source }

// Epoch returns the publication sequence number (1 for the cold-start
// publication, incremented by one on every subsequent publish).
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// MaxResidual returns the snapshot's convergence certificate: the exact L∞
// residual norm when the snapshot was published by a full copy, and a
// running bound (previous certificate joined with the refreshed vertices'
// residuals) on delta publications — so certifying convergence never costs
// an O(n) scan on the sparse path. Either way a correctly published snapshot
// has MaxResidual ≤ Epsilon, because the engine drives every residual within
// ε before publication.
func (s *Snapshot) MaxResidual() float64 { return s.maxResidual }

// Epsilon returns the error threshold the snapshot was converged to.
func (s *Snapshot) Epsilon() float64 { return s.epsilon }

// NumVertices returns the length of the estimate vector.
func (s *Snapshot) NumVertices() int { return len(s.estimates) }

// Estimate returns the PPR estimate of v (0 for out-of-range vertices).
func (s *Snapshot) Estimate(v graph.VertexID) float64 {
	if v < 0 || int(v) >= len(s.estimates) {
		return 0
	}
	return s.estimates[int(v)]
}

// Estimates returns a copy of the estimate vector.
func (s *Snapshot) Estimates() []float64 {
	return append([]float64(nil), s.estimates...)
}

// AppendTopK appends the snapshot's k highest-estimate vertices to dst
// (descending, ties broken by ascending vertex id) and returns the extended
// slice. When the embedded index covers k the read is an O(k) copy;
// otherwise it falls back to the O(n log k) heap scan. The result is a copy
// and stays valid after Release.
func (s *Snapshot) AppendTopK(dst []VertexScore, k int) []VertexScore {
	if k > len(s.estimates) {
		k = len(s.estimates)
	}
	if k <= 0 {
		return dst
	}
	if k <= len(s.top) {
		return append(dst, s.top[:k]...)
	}
	return AppendTopK(dst, s.estimates, k)
}

// Release ends a read begun by SnapshotSlot.Acquire. Every Acquire must be
// paired with exactly one Release; the snapshot must not be read afterwards.
func (s *Snapshot) Release() { s.readers.Add(-1) }

// SnapshotSlot is the publication point between one publisher at a time and
// any number of concurrent readers. It holds one copy of the estimate vector
// besides the state's own P: Publish hands the state's converged P to
// readers with a single atomic pointer store, then takes the copy it
// published before, waits out that copy's readers and gives it back to the
// state as its new private P, patched with the entries that changed. Readers
// therefore always observe a complete, converged vector — never a mid-push
// intermediate — and a held snapshot never changes.
//
// Publish is single-producer in the sense of one publisher at a time, not of
// one pinned goroutine: successive Publish calls may come from different
// goroutines as long as each happens-before the next (the Service publishes
// a source from whichever worker pushed it, and the batch's WaitGroup orders
// that before the next batch). Acquire/Release may be called from any number
// of goroutines concurrently with Publish.
type SnapshotSlot struct {
	cur atomic.Pointer[Snapshot]
	// bufs are the two Snapshot headers the slot alternates between; next
	// indexes the one the next Publish fills (its readers were waited out
	// when it was retired). Only the current publisher touches them.
	bufs  [2]*Snapshot
	next  int
	epoch uint64

	// resBound is the running convergence certificate: exact on full
	// publications (an O(n) scan), and on delta publications the maximum of
	// the previous bound and the refreshed vertices' residuals. The engine's
	// convergence contract independently guarantees every residual ≤ ε at
	// publication, so the bound stays ≤ ε; it is not recomputed from scratch
	// per publish precisely so publication cost scales with the dirty set.
	resBound float64

	// index is the write-side master of the incrementally maintained Top-K
	// ranking.
	index topIndex

	// Publication-path statistics (atomic: Stats readers race Publish).
	fullPublishes  atomic.Uint64
	deltaPublishes atomic.Uint64
}

// DefaultTopKCap is the Top-K index capacity NewSnapshotSlot selects: deep
// enough for any realistic ranking request, shallow enough that the
// per-publication index copy stays trivial next to the push itself. The
// index keeps twice as many entries, so decays of served entries are
// absorbed without a full rescan: driving 16 sources through 600 batches of
// 100 updates rebuilds 16 times, the cold starts, where an index without
// the slack rebuilt 221 times. Reads with k above the capacity fall back to
// a heap scan of the vector.
const DefaultTopKCap = 128

// NewSnapshotSlot returns an empty slot with a Top-K index of DefaultTopKCap
// entries; Acquire returns nil until the first Publish.
func NewSnapshotSlot() *SnapshotSlot { return NewSnapshotSlotTopK(DefaultTopKCap) }

// NewSnapshotSlotTopK returns an empty slot whose published snapshots embed
// an exact Top-K ranking of up to cap entries; cap <= 0 selects
// DefaultTopKCap.
func NewSnapshotSlotTopK(cap int) *SnapshotSlot {
	if cap <= 0 {
		cap = DefaultTopKCap
	}
	sl := &SnapshotSlot{bufs: [2]*Snapshot{{}, {}}}
	sl.index.cap = cap
	return sl
}

// PublishStats reports how the slot's publications were performed.
type PublishStats struct {
	// Full counts publications that recopied the whole estimate vector
	// (cold start, recovery reseed, graph growth, poisoned dirty set, or a
	// dirty set too large for the delta path to win).
	Full uint64
	// Delta counts publications that copied only the dirty set.
	Delta uint64
	// TopKRebuilds counts full-scan rebuilds of the Top-K index.
	TopKRebuilds uint64
}

// Stats returns the slot's publication statistics. Safe to call concurrently
// with Publish (counters are atomic; the rebuild count is read from the
// write side and may lag by one publication).
func (sl *SnapshotSlot) Stats() PublishStats {
	return PublishStats{
		Full:         sl.fullPublishes.Load(),
		Delta:        sl.deltaPublishes.Load(),
		TopKRebuilds: sl.index.rebuilds.Load(),
	}
}

// SeedEpoch primes the publication counter so the next Publish carries epoch
// e+1. It exists for crash recovery: a source restored from a checkpoint
// taken at epoch E seeds its slot with E−1 and republishes the restored
// state, so readers observe the same epoch they would have seen from the
// original process and epochs never regress across a restart. SeedEpoch must
// be called before the first Publish, from the slot's write side.
func (sl *SnapshotSlot) SeedEpoch(e uint64) { sl.epoch = e }

// Publish makes the state's estimate vector the current snapshot, refreshes
// the Top-K index, and gives the state a private copy to push into next. It
// must only be called after the engine has converged st, and only from the
// single goroutine that owns the slot's write side.
//
// The state's P itself is published, with one pointer store and no copy.
// The vector the previous snapshot published then becomes the state's P: it
// differs from the new snapshot exactly in the state's estimate-dirty set
// (maintained by the engines), so only those entries are copied in, and the
// result is bit-identical to a full copy. The residual bound, the Top-K
// index and that copy each walk the set, O(members + n/4096). A full copy
// is made instead when the dirty set is poisoned (a new or restored state,
// MarkAllEstimatesDirty), when the vector grew (new vertices), on the
// slot's first publication, or when the set covers more than half the
// vector, where the dense copy is cheaper.
//
// Recycling the previous vector waits for stragglers: a reader that acquired
// it may still be reading it, so Publish waits until its reader count drains
// to zero. Readers hold snapshots only for the duration of one query, so a
// short spin covers the common case; past it Publish sleeps with back-off
// (1 µs to 1 024 µs) and frees its core for the reader it waits on, where a
// yield would queue it behind goroutines that never block.
func (sl *SnapshotSlot) Publish(st *State) *Snapshot {
	n := st.NumVertices()
	dirty, all := &st.dirty, st.dirtyAll
	old := sl.cur.Load()
	full := all || old == nil || len(old.estimates) != n || dirty.Len() > n/2
	if full {
		sl.resBound = st.MaxResidual()
		sl.fullPublishes.Add(1)
	} else {
		for v := range dirty.All() {
			if r := st.r[v]; r > sl.resBound {
				sl.resBound = r
			} else if -r > sl.resBound {
				sl.resBound = -r
			}
		}
		sl.deltaPublishes.Add(1)
	}
	sl.index.apply(st, dirty, all)

	s := sl.bufs[sl.next]
	s.source = st.Source()
	s.estimates = st.p
	s.maxResidual = sl.resBound
	s.epsilon = st.Epsilon()
	s.top = append(s.top[:0], sl.index.served()...)
	sl.epoch++
	s.epoch = sl.epoch
	sl.cur.Store(s)
	sl.next ^= 1

	var p []float64
	if old != nil {
		for spin := 0; old.readers.Load() != 0; spin++ {
			if spin >= 256 { // sleep, not yield: spinning readers own the run queue
				time.Sleep(time.Microsecond << min(spin-256, 10))
			}
		}
		p, old.estimates = old.estimates, nil
	}
	if full {
		if cap(p) < n {
			p = make([]float64, n)
		}
		p = p[:n]
		copy(p, s.estimates)
	} else {
		for v := range dirty.All() {
			p[v] = s.estimates[v]
		}
	}
	st.p = p
	st.resetDirty()
	return s
}

// Acquire returns the currently published snapshot with a read hold on it,
// or nil if nothing has been published yet. The caller must call Release on
// the returned snapshot when done and must not retain it afterwards.
//
// The implementation is the increment-then-validate hazard protocol: the
// reader registers on the snapshot it loaded and re-checks that it is still
// the published one. If publication moved on in between, the registration is
// undone and the load retried, so a reader can never hold a buffer the
// publisher has started rewriting.
func (sl *SnapshotSlot) Acquire() *Snapshot {
	for {
		s := sl.cur.Load()
		if s == nil {
			return nil
		}
		s.readers.Add(1)
		if sl.cur.Load() == s {
			return s
		}
		s.readers.Add(-1)
	}
}

// Epoch returns the sequence number of the most recent publication (0 before
// the first). It is safe to call concurrently with Publish.
func (sl *SnapshotSlot) Epoch() uint64 {
	if s := sl.cur.Load(); s != nil {
		return s.epoch
	}
	return 0
}
