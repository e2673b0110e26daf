package dynppr

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dynppr/internal/fp"
	"dynppr/internal/push"
	"dynppr/internal/wal"
)

// Service is a concurrent multi-source PPR serving layer: it keeps an
// ε-approximate PPR vector per tracked source over one shared dynamic graph,
// accepts edge-update batches while queries are in flight, and serves reads
// lock-free from converged snapshots.
//
// # Concurrency contract
//
// Writes and reads are decoupled:
//
//   - All mutation — ApplyBatch, UpdateSources, on-demand promotion, WAL
//     replay — takes one path onto a single internal pipeline goroutine, so
//     the graph only ever changes on one goroutine. Each change is admitted once, then validated
//     whole, journaled and applied in one pipeline task. Mutating calls are
//     safe to issue from any number of goroutines; they are serialized in
//     arrival order and block until their effect is complete and published.
//
//   - The pipeline drives one TrackerSet: a batch is journaled, applied to
//     the graph with every source's invariant restored, and then up to
//     PoolWorkers goroutines (the pipeline's own among them) claim the
//     sources one by one, push each to convergence on their own engine and
//     publish its fresh snapshot with one atomic pointer swap. No source is
//     pinned to a worker; the batch returns when every source has published,
//     so a source has one publisher at a time and its publications are
//     ordered batch after batch.
//
//   - Reads — EstimateInfo, EstimatesInfo, AppendTopK, Info — are
//     lock-free: they load the source's current snapshot through an atomic
//     pointer and read immutable data. A snapshot is only published after its push has converged, so a
//     read can never observe a mid-push, non-converged vector; during a
//     batch, reads simply keep serving the previous converged state. Each
//     source's push writes a private estimate vector that publication hands
//     to readers, and the publisher waits for straggling readers before it
//     takes back the vector published before.
//
// Consequently every read reflects the graph as of some completed batch
// (monotonically advancing per source), never a partially applied one.
//
// The service is reproducible: whoever claims a source pushes it alone
// through the sequential push's FIFO, whose order is fixed by adjacency-list
// order and the batch's touched order, and reads nothing but that source's
// state and the quiescent graph. So replaying the same batch sequence over
// the same initial graph publishes snapshots with exactly the same float64
// bits — regardless of PoolWorkers, of which worker pushed which source, of
// scheduling, or of the machine's core count.
type Service struct {
	opts ServiceOptions

	// table is the copy-on-write source directory readers go through. The
	// map it points to is immutable; mutators build a new map and swap the
	// pointer.
	table atomic.Pointer[sourceTable]

	work    chan task
	closeMu sync.RWMutex
	closed  bool
	done    chan struct{}

	// Pipeline-owned state (touched only on the pipeline goroutine after
	// construction, and by the goroutines a batch lends its sources to). set
	// maintains the tracked sources over g.
	g   *Graph
	set *TrackerSet

	// persist is the optional durability layer (WAL + checkpoints); nil for
	// an in-memory service. The pointer is swapped in once during
	// construction/recovery and its mutable fields are pipeline-owned (see
	// persist.go).
	persist atomic.Pointer[persistence]

	// Aggregate statistics, updated by the pipeline, read by Stats.
	batches      atomic.Int64
	applied      atomic.Int64
	skipped      atomic.Int64
	lastLatency  atomic.Int64 // nanoseconds
	totalLatency atomic.Int64 // nanoseconds
	vertices     atomic.Int64
	edges        atomic.Int64
	// shed counts mutations rejected with ErrOverloaded because the write
	// queue was full and the caller's admission budget ran out.
	shed atomic.Int64

	// Background compaction of the graph's LSM store. compacting gates one
	// in-flight merge; compactWG lets Close wait the merge goroutine out.
	// The remaining fields mirror pipeline-owned graph state for Stats and,
	// in graphVersion (Graph.Version), for the on-demand view cache.
	compacting    atomic.Bool
	compactWG     sync.WaitGroup
	compactions   atomic.Int64
	lastCompactNs atomic.Int64
	deltaEdges    atomic.Int64
	baseEdges     atomic.Int64
	overlaidVerts atomic.Int64
	storageEpoch  atomic.Uint64
	graphVersion  atomic.Uint64
	// od is the on-demand query engine for untracked sources; nil unless
	// ServiceOptions.OnDemand.Enabled.
	od *onDemand
	// tick is the recency clock of auto-promoted sources
	// (serviceSource.lastUse).
	tick atomic.Int64
}

type sourceTable map[VertexID]*serviceSource

// serviceSource is one tracked source: its push state (owned by the
// service's TrackerSet) and snapshot publication slot, the read/write
// boundary.
type serviceSource struct {
	source VertexID
	st     *push.State
	slot   *push.SnapshotSlot
	// auto marks a source the on-demand tier promoted, set when the source
	// enters the table and kept by the journal and the checkpoint; lastUse
	// is its recency for eviction, a tick of the service's clock refreshed
	// by every read. A source added by hand carries neither, so it is never
	// evicted.
	auto    atomic.Bool
	lastUse atomic.Int64
}

// task is one unit of pipeline work. done, if non-nil, is closed once fn has
// run and the Stats gauges reflect it.
type task struct {
	fn   func()
	done chan struct{}
}

// ServiceOptions configure a Service.
type ServiceOptions struct {
	// Options carry the tracking parameters. The service reads Alpha and
	// Epsilon; every other field configures Tracker and TrackerSet only —
	// the service always runs the sequential push, one engine per pool
	// worker, and Options() reports it.
	Options Options
	// PoolWorkers bounds how many sources are pushed at once; <= 0 selects
	// GOMAXPROCS.
	PoolWorkers int
	// QueueDepth is the capacity of the write pipeline. When it is full,
	// ApplyBatch blocks (backpressure), while ApplyBatchCtx and UpdateSources
	// wait only until their context is done — at once if it already is —
	// and then surface ErrOverloaded, so serving front ends can turn
	// saturation into load shedding instead of unbounded latency. <= 0
	// selects 64.
	QueueDepth int
	// OnDemand configures the approximate query path for untracked sources
	// (QueryTopKCtx/QueryEstimateCtx); the zero value disables it.
	OnDemand OnDemandOptions
}

// Options returns the options the service runs with. For a service built by
// NewServiceFromRecovery, Alpha and Epsilon carry the checkpoint's restored
// values rather than whatever the caller passed in.
func (s *Service) Options() ServiceOptions { return s.opts }

// DefaultServiceOptions returns the default tracking options with
// GOMAXPROCS pool workers.
func DefaultServiceOptions() ServiceOptions {
	return ServiceOptions{Options: DefaultOptions()}
}

// Service errors.
var (
	// ErrUnknownSource is returned by reads for a source that is not (or no
	// longer) tracked.
	ErrUnknownSource = errors.New("dynppr: source is not tracked")
	// ErrServiceClosed is returned by every operation after Close.
	ErrServiceClosed = errors.New("dynppr: service is closed")
	// ErrOverloaded is returned by the context-aware mutators when the write
	// pipeline's queue is full and the caller's admission budget (none, under
	// a context that is already done) expires before a slot frees up. The mutation was NOT journaled and NOT applied: the caller
	// can safely retry later. Serving front ends map it to 429.
	ErrOverloaded = errors.New("dynppr: write pipeline is overloaded")
	// ErrVertexOutOfRange is returned by ApplyBatch and UpdateSources for a
	// vertex id at or beyond NumVertices + MaxVertexGrowth. The mutation
	// was NOT journaled and NOT applied. Serving front ends map it to 400.
	ErrVertexOutOfRange = errors.New("dynppr: vertex id out of range")
	// ErrSourceTracked is returned by UpdateSources for an addition of a
	// source that is already tracked, or added twice. The mutation was NOT
	// journaled and NOT applied. Serving front ends map it to 409.
	ErrSourceTracked = errors.New("dynppr: source is already tracked")
)

// MaxVertexGrowth bounds how far past the current graph one mutation may
// name a vertex. Ids are dense, so naming vertex v sizes every per-vertex
// array — the graph's and every tracked source's — to v+1: without a bound
// one small request could demand gigabytes, and since the WAL record is
// written before the apply, a restarted process would replay it and fail
// again. Vertex counts never shrink, so a check against an earlier count is
// conservative.
const MaxVertexGrowth = 1 << 16

// checkVertex rejects a vertex id beyond the growth bound. It runs on the
// pipeline, in validate.
func (s *Service) checkVertex(v VertexID) error {
	if n := s.g.NumVertices(); int(v) >= n+MaxVertexGrowth {
		return fmt.Errorf("%w: %d, the graph has %d vertices", ErrVertexOutOfRange, v, n)
	}
	return nil
}

// NewService builds a serving layer over g tracking the given sources,
// cold-starts every source to convergence, publishes their first snapshots,
// and starts the write pipeline. The service takes ownership of g: the
// caller must not read or mutate it afterwards. Close must be called to
// release the pipeline goroutine.
//
// A Service built this way is in-memory only; use NewPersistentService or
// NewServiceFromRecovery for one whose state survives restarts.
func NewService(g *Graph, sources []VertexID, so ServiceOptions) (*Service, error) {
	return newService(g, so, sources, nil, nil)
}

// newService is the shared constructor. With nil states the sources are
// cold-started from scratch (the NewService path); otherwise states and
// epochs, parallel to sources, carry each checkpointed source's converged
// state and the snapshot epoch it had published, to republish at that epoch
// without re-running any push (the recovery path).
func newService(g *Graph, so ServiceOptions, sources []VertexID, states []*push.State, epochs []uint64) (*Service, error) {
	if err := so.Options.Validate(); err != nil {
		return nil, err
	}
	// Checkpointed source sets are unique by format (strictly ascending) and
	// may legitimately be empty: a live service can drop its last source
	// through UpdateSources, and recovery must be able to rebuild that state
	// rather than refuse its own checkpoint.
	if states == nil {
		if err := validateSources(sources); err != nil {
			return nil, err
		}
	}
	if so.PoolWorkers <= 0 {
		so.PoolWorkers = fp.DefaultWorkers()
	}
	if so.QueueDepth <= 0 {
		so.QueueDepth = 64
	}
	// Whatever engine the caller's Options named, this is the one the set
	// builds per worker, and what Options() reports.
	so.Options.Engine = EngineSequential

	svc := &Service{
		opts: so,
		g:    g,
		work: make(chan task, so.QueueDepth),
		done: make(chan struct{}),
	}
	table := make(sourceTable, len(sources))
	for i, s := range sources {
		src := &serviceSource{source: s, slot: push.NewSnapshotSlot()}
		if states != nil {
			if epochs[i] == 0 {
				return nil, fmt.Errorf("dynppr: recovered source %d has epoch 0", s)
			}
			src.slot.SeedEpoch(epochs[i] - 1)
		}
		table[s] = src
	}
	// Bring every source to its first published snapshot, PoolWorkers at a
	// time: a cold source converges from scratch, a recovered one
	// republishes its restored state as-is (it was converged when
	// checkpointed) at its restored epoch.
	set, err := newTrackerSet(g, so.Options, so.PoolWorkers, sources, states, func(st *push.State) {
		src := table[st.Source()]
		src.st = st
		src.slot.Publish(st)
	})
	if err != nil {
		return nil, err
	}
	svc.set = set
	svc.table.Store(&table)
	svc.noteGraph()
	if so.OnDemand.Enabled {
		svc.od = newOnDemand(svc, so.OnDemand)
	}
	go svc.pipeline()
	return svc, nil
}

// pipeline is the single goroutine every mutation flows through. It is also
// the one site that refreshes the Stats gauges: after every task, before the
// task's waiter is released.
func (s *Service) pipeline() {
	defer close(s.done)
	for t := range s.work {
		t.fn()
		s.noteGraph()
		if t.done != nil {
			close(t.done)
		}
	}
}

// publish is the set's per-source hook: it runs on whichever goroutine just
// pushed st to convergence.
func (s *Service) publish(st *push.State) {
	(*s.table.Load())[st.Source()].slot.Publish(st)
}

// admit is the one way onto the pipeline: it enqueues t, waiting for a queue
// slot at most until ctx is done. Blocking callers pass the background
// context; a context that is already done still admits immediately when a
// slot is free, and sheds at once when none is. The context bounds
// ADMISSION only: once t is enqueued it runs to completion regardless of
// ctx, so a journaled mutation is never abandoned half-acknowledged. A
// timeout surfaces ErrOverloaded.
func (s *Service) admit(ctx context.Context, t task) error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return ErrServiceClosed
	}
	select {
	case s.work <- t:
		return nil
	default:
	}
	select {
	case s.work <- t:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("%w: %v", ErrOverloaded, ctx.Err())
	}
}

// onPipeline admits fn, waits for the pipeline goroutine to run it and
// returns what it returned; an admission failure returns the zero T.
func onPipeline[T any](ctx context.Context, s *Service, fn func() (T, error)) (T, error) {
	var out struct {
		v   T
		err error
	}
	done := make(chan struct{})
	if aerr := s.admit(ctx, task{fn: func() { out.v, out.err = fn() }, done: done}); aerr != nil {
		return out.v, aerr
	}
	<-done
	return out.v, out.err
}

// Close shuts the service down: queued mutations finish, the pipeline
// exits, the write-ahead log (if any) is flushed and closed,
// and every subsequent operation returns ErrServiceClosed. Reads racing
// with Close may still succeed against the last published snapshots. Close
// is idempotent.
func (s *Service) Close() error {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return nil
	}
	s.closed = true
	close(s.work)
	s.closeMu.Unlock()
	<-s.done
	// A background compaction may still be merging; its install is refused
	// by the closed pipeline and the goroutine exits.
	s.compactWG.Wait()
	// Wait the on-demand tier out: queries blocked on the cold-push bound
	// fail with ErrServiceClosed (s.done is closed), in-flight cold pushes
	// (pure reads of pinned views) run to completion for their waiters.
	if s.od != nil {
		s.od.close()
	}
	// The pipeline has exited, so nothing appends concurrently.
	if p := s.persist.Load(); p != nil {
		return p.close()
	}
	return nil
}

// ApplyBatch applies a batch of edge updates to the shared graph, restores
// every tracked source, pushes each to convergence, PoolWorkers at a time,
// and publishes fresh snapshots — all before returning. Concurrent callers are
// serialized by the pipeline; concurrent readers keep being served from the
// previous snapshots until the new ones are published.
//
// On a persistent service the batch is journaled to the write-ahead log
// before it is applied; a journal failure rejects the batch (and every
// later mutation) so the in-memory state never runs ahead of what recovery
// can reconstruct.
func (s *Service) ApplyBatch(b Batch) (BatchResult, error) {
	return s.ApplyBatchCtx(context.Background(), b)
}

// ApplyBatchCtx is ApplyBatch with bounded admission: if the write queue is
// full it waits for a slot only until ctx is done, then sheds the batch with
// ErrOverloaded (wrapping the context's error) without journaling or
// applying anything. The context bounds admission only — once the batch is
// admitted the call blocks until the batch is journaled, applied, and
// published, even past the deadline, so the acknowledgement a caller
// eventually reads always matches the durable state. Under a context that
// is already done, admission never waits: a free slot admits the batch, a
// full queue sheds it at once.
func (s *Service) ApplyBatchCtx(ctx context.Context, b Batch) (BatchResult, error) {
	return s.mutate(ctx, []wal.Record{{Type: wal.RecordBatch, Batch: b}}, false)
}

// mutate is the one path every change to the served state takes — edge
// batches, source additions and removals, a promotion with its eviction,
// and WAL replay — given as the WAL records it journals. It admits the
// change once, under ctx, and commits it in one pipeline task. A change
// shed at admission counts against the shed statistic; a read that gave up
// refreshing its graph view does not, so it never looks like write load
// shedding on the dashboards.
func (s *Service) mutate(ctx context.Context, recs []wal.Record, evict bool) (BatchResult, error) {
	res, err := onPipeline(ctx, s, func() (BatchResult, error) { return s.commit(recs, evict) })
	if errors.Is(err, ErrOverloaded) {
		s.shed.Add(1)
	}
	return res, err
}

// commit runs a change on the pipeline. It validates every record before
// any is journaled, then journals and applies them in order: a change that
// fails validation has no effect at all. Each record is applied as soon as
// it is journaled, so memory never runs ahead of the journal or behind it;
// a journal failure part-way through (storage trouble) keeps the records
// before it. evict marks a live promotion: the evictions that keep the
// auto-promoted set within its cap are chosen once the promotion has
// validated, and journaled after it as removals. The result is the last
// batch record's.
func (s *Service) commit(recs []wal.Record, evict bool) (BatchResult, error) {
	if err := s.validate(recs); err != nil {
		return BatchResult{}, err
	}
	if evict {
		recs = s.od.appendEvictions(recs)
	}
	var res BatchResult
	for _, rec := range recs {
		if err := s.journal(rec); err != nil {
			return res, err
		}
		if rec.Type == wal.RecordBatch {
			res = s.doBatch(rec.Batch)
		} else if err := s.applySource(rec); err != nil {
			return res, err
		}
	}
	if evict {
		s.od.promotions.Add(1)
		s.od.evictions.Add(int64(len(recs) - 1))
	}
	return res, nil
}

// validate checks a change on the pipeline before any of it is journaled:
// every batch update against the vertex bound, and every source record
// against the tracked set as the records before it leave it. So the WAL
// never holds a record that fails to apply, or to replay.
func (s *Service) validate(recs []wal.Record) error {
	var tracked map[VertexID]bool // copied from the table at the first source record
	for _, rec := range recs {
		if rec.Type == wal.RecordBatch {
			for _, u := range rec.Batch {
				if err := s.checkVertex(max(u.U, u.V)); err != nil {
					return err
				}
			}
			continue
		}
		if tracked == nil {
			tracked = make(map[VertexID]bool)
			for v := range *s.table.Load() {
				tracked[v] = true
			}
		}
		switch rec.Type {
		case wal.RecordAddSource, wal.RecordPromote:
			if rec.Source < 0 {
				return fmt.Errorf("dynppr: source must be non-negative, got %d", rec.Source)
			}
			if err := s.checkVertex(rec.Source); err != nil {
				return err
			}
			if tracked[rec.Source] {
				return fmt.Errorf("%w: %d", ErrSourceTracked, rec.Source)
			}
		case wal.RecordRemoveSource:
			if !tracked[rec.Source] {
				return fmt.Errorf("%w: %d", ErrUnknownSource, rec.Source)
			}
		default:
			return fmt.Errorf("dynppr: unknown record type %d", rec.Type)
		}
		tracked[rec.Source] = rec.Type != wal.RecordRemoveSource
	}
	return nil
}

func (s *Service) doBatch(b Batch) BatchResult {
	start := time.Now()
	applied, pushes := s.set.apply(b, s.publish)
	if applied > 0 {
		s.maybeCompact()
	}
	latency := time.Since(start)
	s.batches.Add(1)
	s.applied.Add(int64(applied))
	s.skipped.Add(int64(len(b) - applied))
	s.lastLatency.Store(int64(latency))
	s.totalLatency.Add(int64(latency))
	return BatchResult{
		Applied: applied,
		Skipped: len(b) - applied,
		Latency: latency,
		Pushes:  pushes,
	}
}

// noteGraph mirrors the pipeline-owned graph and LSM-store gauges into
// atomics for Stats readers, and the graph's Version for the on-demand view
// cache. Its one call site is the pipeline loop, so every task's effect is
// mirrored before its waiter is released.
func (s *Service) noteGraph() {
	s.vertices.Store(int64(s.g.NumVertices()))
	s.edges.Store(int64(s.g.NumEdges()))
	s.deltaEdges.Store(int64(s.g.DeltaEdges()))
	s.baseEdges.Store(int64(s.g.BaseEdges()))
	s.overlaidVerts.Store(int64(s.g.OverlaidVertices()))
	s.storageEpoch.Store(s.g.Epoch())
	s.graphVersion.Store(s.g.Version())
}

// maybeCompact runs on the pipeline after an effective batch and decides
// whether the delta segments have earned a compaction, by the graph's own
// policy (Graph.CompactThreshold). The normal trigger starts a background
// merge: the overlaid segments are frozen in id order (a walk of the graph's
// registry bitmap, with no map and no sort), the merged CSR is built on a
// spare goroutine while the pipeline keeps applying batches, and the swap is
// admitted back to the pipeline — a quiescent point by construction, since
// every engine read also runs inside pipeline tasks. If the deltas ever
// reach 4× the trigger (the merge is slower than the write rate), the
// pipeline compacts inline, trading one batch's latency for bounded memory.
// Neither moves Graph.Version, so cached cold answers survive both.
func (s *Service) maybeCompact() {
	th := s.g.CompactThreshold()
	d := s.g.DeltaEdges()
	switch {
	case d < th:
		return
	case d >= 4*th:
		s.compactInline()
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return // one merge in flight is enough
	}
	c := s.g.BeginCompaction()
	s.compactWG.Add(1)
	go func() {
		defer s.compactWG.Done()
		start := time.Now()
		base := c.Build()
		if err := s.admit(context.Background(), task{fn: func() {
			// Install no-ops (false) when an inline compaction or checkpoint
			// swapped the base first; the stale merge is simply discarded.
			if s.g.Install(c, base) {
				s.compacted(start)
			}
			s.compacting.Store(false)
		}}); err != nil {
			s.compacting.Store(false) // service closed; deltas stay mergeable
		}
	}()
}

// CompactNow synchronously merges every delta segment of the graph's LSM
// store into a fresh immutable base. The logical graph — and therefore every
// estimate, residual, and Top-K ranking — is unchanged; only the physical
// layout moves. It is exposed for operational use (pre-checkpoint squeeze,
// tests) — the service normally compacts itself once the deltas reach
// Graph.CompactThreshold.
func (s *Service) CompactNow() error {
	_, err := onPipeline(context.Background(), s, func() (struct{}, error) {
		s.compactInline()
		return struct{}{}, nil
	})
	return err
}

// compactInline merges the graph's deltas into its base on the pipeline
// (Graph.Compact: the background protocol run inline).
func (s *Service) compactInline() {
	before, start := s.g.Epoch(), time.Now()
	s.g.Compact()
	if s.g.Epoch() != before {
		s.compacted(start)
	}
}

// compacted counts a base swap, inline or installed from the background, as
// the latest compaction, begun at start.
func (s *Service) compacted(start time.Time) {
	s.compactions.Add(1)
	s.lastCompactNs.Store(int64(time.Since(start)))
}

// UpdateSources changes the tracked set in one mutation: every source of
// add starts being tracked, in order, then every source of remove stops. An
// added source is cold-started on the current graph and becomes visible to
// reads atomically once converged; readers of other sources are never
// blocked, and in-flight reads of a removed source complete normally. ctx
// bounds admission only (see ApplyBatchCtx). The change is validated whole
// before any of it is journaled: an addition that is negative, beyond the
// vertex bound (ErrVertexOutOfRange) or already tracked (ErrSourceTracked),
// or a removal of a source that is not tracked (ErrUnknownSource), rejects
// all of it with no effect. A removal may name a source the same call adds.
// To add or remove one source, pass a one-element slice; to wait for
// admission without bound, pass context.Background().
func (s *Service) UpdateSources(ctx context.Context, add, remove []VertexID) error {
	recs := make([]wal.Record, 0, len(add)+len(remove))
	for _, v := range add {
		recs = append(recs, wal.Record{Type: wal.RecordAddSource, Source: v})
	}
	for _, v := range remove {
		recs = append(recs, wal.Record{Type: wal.RecordRemoveSource, Source: v})
	}
	_, err := s.mutate(ctx, recs, false)
	return err
}

// applySource applies a validated source record. An addition's cold start
// runs right here: the pipeline goroutine is not inside a batch, so the
// set's engines are idle. A promotion marks the source auto-promoted.
func (s *Service) applySource(rec wal.Record) error {
	next := maps.Clone(*s.table.Load())
	if rec.Type == wal.RecordRemoveSource {
		delete(next, rec.Source)
		s.table.Store(&next)
		s.set.remove(rec.Source)
		return nil
	}
	st, err := s.set.add(rec.Source)
	if err != nil {
		return err
	}
	src := &serviceSource{source: rec.Source, st: st, slot: push.NewSnapshotSlot()}
	if rec.Type == wal.RecordPromote {
		src.auto.Store(true)
		src.lastUse.Store(s.tick.Add(1))
	}
	src.slot.Publish(st)
	next[rec.Source] = src
	s.table.Store(&next)
	return nil
}

// acquire resolves a source through the copy-on-write table and returns
// its current snapshot with a read hold on it, lock-free; the caller must
// Release it. A successful resolution of an auto-promoted source refreshes
// its lastUse — acquire is the one path all tracked reads share, so a source
// read heavily through AppendTopK/EstimateInfo (not just Query*) stays warm
// against eviction. The refresh is two atomics on the source itself, so tracked
// reads stay lock-free.
func (s *Service) acquire(source VertexID) (*push.Snapshot, error) {
	table := s.table.Load()
	if table == nil {
		return nil, ErrUnknownSource
	}
	src, ok := (*table)[source]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownSource, source)
	}
	if src.auto.Load() {
		src.lastUse.Store(s.tick.Add(1))
	}
	snap := src.slot.Acquire()
	if snap == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownSource, source)
	}
	return snap, nil
}

// Sources returns the currently tracked sources in ascending order.
func (s *Service) Sources() []VertexID {
	table := *s.table.Load()
	out := make([]VertexID, 0, len(table))
	for v := range table {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SnapshotInfo describes the snapshot a read was served from.
type SnapshotInfo struct {
	// Source is the snapshot's source vertex.
	Source VertexID
	// Epoch counts publications for this source: 1 is the cold start, and
	// each completed batch or slide increments it.
	Epoch uint64
	// MaxResidual is the L∞ residual norm at publication; the convergence
	// contract guarantees MaxResidual <= Epsilon.
	MaxResidual float64
	// Epsilon is the error threshold the snapshot was converged to.
	Epsilon float64
	// Vertices is the snapshot's vector length.
	Vertices int
}

// Converged reports whether the snapshot honoured the convergence contract.
func (i SnapshotInfo) Converged() bool { return i.MaxResidual <= i.Epsilon }

func snapshotInfo(snap *push.Snapshot) SnapshotInfo {
	return SnapshotInfo{
		Source:      snap.Source(),
		Epoch:       snap.Epoch(),
		MaxResidual: snap.MaxResidual(),
		Epsilon:     snap.Epsilon(),
		Vertices:    snap.NumVertices(),
	}
}

// EstimatesInfo returns a copy of source's estimate vector together with the
// metadata of the snapshot it came from, so callers can check the epoch and
// convergence of what they read.
func (s *Service) EstimatesInfo(source VertexID) ([]float64, SnapshotInfo, error) {
	snap, err := s.acquire(source)
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	defer snap.Release()
	return snap.Estimates(), snapshotInfo(snap), nil
}

// Info returns the metadata of source's current snapshot without copying the
// vector.
func (s *Service) Info(source VertexID) (SnapshotInfo, error) {
	snap, err := s.acquire(source)
	if err != nil {
		return SnapshotInfo{}, err
	}
	defer snap.Release()
	return snapshotInfo(snap), nil
}

// AppendTopK appends to dst the k vertices with the largest PPR estimates
// towards source, read from the current converged snapshot, and returns the
// metadata of that snapshot, so remote callers (the HTTP front end) can
// verify convergence and epoch monotonicity of what they were served. A nil
// dst allocates the result; hot readers that recycle their result slices
// perform no allocations. When k is within the snapshot's embedded Top-K
// index (push.DefaultTopKCap deep, kept exact incrementally at publish time)
// the read is an O(k) copy; larger k falls back to the O(n log k) heap scan
// of the vector.
func (s *Service) AppendTopK(dst []VertexScore, source VertexID, k int) ([]VertexScore, SnapshotInfo, error) {
	snap, err := s.acquire(source)
	if err != nil {
		return dst, SnapshotInfo{}, err
	}
	defer snap.Release()
	return snap.AppendTopK(dst, k), snapshotInfo(snap), nil
}

// EstimateInfo returns the PPR estimate of v with respect to source, read
// from the source's current converged snapshot, together with the metadata
// of that snapshot. Both values come from one Acquire, so the estimate is
// guaranteed to belong to the reported epoch — the consistency check batched
// remote reads rely on.
func (s *Service) EstimateInfo(source, v VertexID) (float64, SnapshotInfo, error) {
	snap, err := s.acquire(source)
	if err != nil {
		return 0, SnapshotInfo{}, err
	}
	defer snap.Release()
	return snap.Estimate(v), snapshotInfo(snap), nil
}

// Closed reports whether Close has been called. Serving front ends use it to
// fail health checks during shutdown while in-flight snapshot reads drain.
func (s *Service) Closed() bool {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	return s.closed
}

// SourceStats reports per-source serving statistics.
type SourceStats struct {
	// Source is the tracked source vertex.
	Source VertexID `json:"source"`
	// Epoch is the source's current snapshot epoch.
	Epoch uint64 `json:"epoch"`
	// Pushes is the cumulative number of push operations performed for this
	// source (cold start included).
	Pushes int64 `json:"pushes"`
	// MaxResidual is the convergence certificate of the current snapshot
	// (exact on full publications, a running bound on delta publications;
	// always ≤ ε).
	MaxResidual float64 `json:"max_residual"`
	// FullPublishes and DeltaPublishes count how the source's snapshots
	// were published: full vector copies versus dirty-set deltas.
	FullPublishes  uint64 `json:"full_publishes"`
	DeltaPublishes uint64 `json:"delta_publishes"`
	// TopKRebuilds counts full-scan rebuilds of the source's Top-K index
	// (cold start, graph growth, threshold invalidation by decays).
	TopKRebuilds uint64 `json:"topk_rebuilds"`
}

// StorageStats reports the state of the LSM-style graph store: one immutable
// CSR base segment plus per-vertex mutable delta segments that background
// compaction folds back into a fresh base.
type StorageStats struct {
	// Epoch identifies the current base segment; it advances on every
	// compaction (base swap). Logical graph content never changes across an
	// epoch bump.
	Epoch uint64 `json:"epoch"`
	// BaseEdges is the edge count of the immutable base. DeltaEdges counts
	// adjacency entries (both directions) held in mutable delta segments
	// awaiting compaction, and OverlaidVertices the vertices currently read
	// from those segments rather than the base.
	BaseEdges        int64 `json:"base_edges"`
	DeltaEdges       int64 `json:"delta_edges"`
	OverlaidVertices int64 `json:"overlaid_vertices"`
	// Compactions counts base swaps (background installs, inline 4×-trigger
	// compactions, CompactNow, and checkpoints, which always compact).
	// LastCompaction is the build+install wall time of the most recent one,
	// and CompactionInFlight reports a background merge currently running.
	Compactions        int64         `json:"compactions"`
	LastCompaction     time.Duration `json:"last_compaction_ns"`
	CompactionInFlight bool          `json:"compaction_in_flight"`
}

// ServiceStats reports aggregate serving statistics. Its JSON form is the
// service block of GET /stats; durations encode as integer nanoseconds.
type ServiceStats struct {
	// Sources lists per-source statistics in ascending source order.
	Sources []SourceStats `json:"sources"`
	// Batches is the number of completed ApplyBatch calls.
	Batches int64 `json:"batches"`
	// UpdatesApplied and UpdatesSkipped count effective and no-op updates.
	UpdatesApplied int64 `json:"updates_applied"`
	UpdatesSkipped int64 `json:"updates_skipped"`
	QueueStats
	// Vertices and Edges describe the graph after the last completed batch.
	Vertices int `json:"vertices"`
	Edges    int `json:"edges"`
	// Storage describes the LSM graph store's segments and compaction
	// activity.
	Storage StorageStats `json:"storage"`
	// PoolWorkers is the bound on sources pushed at once.
	PoolWorkers int `json:"pool_workers"`
	// Persistence reports the durability layer's state; nil for an
	// in-memory service.
	Persistence *PersistenceStats `json:"persistence,omitempty"`
	// OnDemand reports the on-demand query path's counters; nil when the
	// path is disabled.
	OnDemand *OnDemandStats `json:"ondemand,omitempty"`
}

// QueueStats is the cheap, allocation-free subset of ServiceStats the
// admission-control hot path needs: serving front ends read it on every
// overload response to compute a Retry-After hint, so it must not walk the
// source table the way Stats does.
type QueueStats struct {
	// QueueDepth is the number of queued mutations and QueueCap the
	// queue's capacity (ServiceOptions.QueueDepth).
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// Shed counts mutations rejected with ErrOverloaded at admission.
	Shed int64 `json:"shed"`
	// LastBatchLatency, AvgBatchLatency and TotalBatchLatency time the
	// restore+push+publish pipeline (not the queueing delay): of the most
	// recent batch, per batch, and over all batches. With QueueDepth, the
	// first two estimate how long a full queue takes to drain.
	LastBatchLatency  time.Duration `json:"last_batch_ns"`
	AvgBatchLatency   time.Duration `json:"avg_batch_ns"`
	TotalBatchLatency time.Duration `json:"total_batch_ns"`
}

// Queue returns the pipeline's admission statistics. It is safe to call
// concurrently with reads and writes and performs no allocation.
func (s *Service) Queue() QueueStats {
	qs := QueueStats{
		QueueDepth:        len(s.work),
		QueueCap:          cap(s.work),
		Shed:              s.shed.Load(),
		LastBatchLatency:  time.Duration(s.lastLatency.Load()),
		TotalBatchLatency: time.Duration(s.totalLatency.Load()),
	}
	if n := s.batches.Load(); n > 0 {
		qs.AvgBatchLatency = qs.TotalBatchLatency / time.Duration(n)
	}
	return qs
}

// Stats returns a point-in-time view of the service's serving statistics.
// It is safe to call concurrently with reads and writes.
func (s *Service) Stats() ServiceStats {
	table := *s.table.Load()
	stats := ServiceStats{
		Batches:        s.batches.Load(),
		UpdatesApplied: s.applied.Load(),
		UpdatesSkipped: s.skipped.Load(),
		QueueStats:     s.Queue(),
		Vertices:       int(s.vertices.Load()),
		Edges:          int(s.edges.Load()),
		Storage: StorageStats{
			Epoch:              s.storageEpoch.Load(),
			BaseEdges:          s.baseEdges.Load(),
			DeltaEdges:         s.deltaEdges.Load(),
			OverlaidVertices:   s.overlaidVerts.Load(),
			Compactions:        s.compactions.Load(),
			LastCompaction:     time.Duration(s.lastCompactNs.Load()),
			CompactionInFlight: s.compacting.Load(),
		},
		PoolWorkers: s.opts.PoolWorkers,
		Persistence: s.persistenceStats(),
	}
	if s.od != nil {
		stats.OnDemand = s.od.stats()
	}
	for _, src := range table {
		ps := src.slot.Stats()
		ss := SourceStats{
			Source:         src.source,
			Pushes:         atomic.LoadInt64(&src.st.Counters.Pushes),
			FullPublishes:  ps.Full,
			DeltaPublishes: ps.Delta,
			TopKRebuilds:   ps.TopKRebuilds,
		}
		if snap := src.slot.Acquire(); snap != nil {
			ss.Epoch = snap.Epoch()
			ss.MaxResidual = snap.MaxResidual()
			snap.Release()
		}
		stats.Sources = append(stats.Sources, ss)
	}
	sort.Slice(stats.Sources, func(i, j int) bool {
		return stats.Sources[i].Source < stats.Sources[j].Source
	})
	return stats
}
