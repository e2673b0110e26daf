// On-demand queries: error-bounded PPR answers for sources nobody
// registered in advance.
//
// The tracked path can never reach "millions of users" — each tracked source
// costs a full estimate/residual pair kept converged on every batch. The
// on-demand path answers the long tail instead: a one-shot run of the
// paper's local push (push.ColdPushBounded) over an immutable view of the
// current graph down to a coarse ε, bounded only by odMaxPushes. The view is
// epoch-pinned and touched-proportional: it layers the delta segments recent
// batches produced over the shared immutable CSR base, so refreshing it after
// a mutation costs O(what the batch touched), not O(graph). The push is local
// the same way: it costs, allocates and caches what it touched — a sparse
// estimate vector — never a length-n array. Both tiers estimate the same
// quantity — the contribution vector π_·(s) the live trackers maintain — so
// promoting a source tightens its error bound without ever changing the
// meaning of its answers.
//
// Accuracy has one dial. Every cold answer — computed, coalesced or cached,
// whichever of QueryTopK or QueryEstimate asked first — is a bit-deterministic
// function of (graph generation, source, α, on-demand ε, odMaxPushes) and
// carries the per-vertex bound it achieved. A caller who needs better than
// the coarse ε has two levers, both deterministic: a smaller
// OnDemandOptions.Epsilon, or tracking the source at the tracked ε (promotion
// or AddSource, journaled on a persistent service).
//
// Cold answers are computed concurrently but never redundantly: identical
// in-flight queries are singleflight-coalesced by (source, graph
// generation) — the only place on the serving path identical reads are
// shared — the leader runs the push on its own goroutine holding one of
// GOMAXPROCS tokens acquired under its context (overload still surfaces
// ErrOverloaded, never partial effects), and completed answers land in an
// LRU result cache of odCacheEntries answers under the same (source,
// generation) key — a repeat query between graph mutations is an O(k) read,
// and a mutation invalidates the cache for free because the generation moves
// (compaction does not bump it).
//
// A frequency-based admission cache watches on-demand traffic: a source
// queried at least PromoteAfter times is promoted into tracked state through
// the live AddSource path, and when the auto-promoted set is at capacity the
// coldest auto-promoted source is evicted first (manually added sources are
// never touched). Hot long-tail users therefore graduate to exact
// incremental maintenance automatically, and fall back to approximate
// answers — never errors — when they cool off.
package dynppr

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dynppr/internal/fp"
	"dynppr/internal/graph"
	"dynppr/internal/push"
)

// OnDemandOptions configure the approximate query path for untracked
// sources. The zero value disables it: QueryTopK/QueryEstimate then behave
// exactly like TopK/Estimate, returning ErrUnknownSource for untracked
// sources.
type OnDemandOptions struct {
	// Enabled turns the on-demand path on.
	Enabled bool
	// Epsilon is the push residual threshold for on-demand queries. It is
	// deliberately coarser than the tracked ε — the push cost grows like
	// 1/ε. <= 0 selects 1e-4.
	Epsilon float64
	// PromoteAfter is the query-count threshold T at which an untracked
	// source is promoted into tracked state. 0 disables promotion.
	PromoteAfter int
	// MaxAutoSources caps how many auto-promoted sources may be tracked at
	// once; at capacity the coldest auto-promoted source is evicted to make
	// room. Manually added sources are never evicted. <= 0 selects 64.
	MaxAutoSources int
}

const (
	// odCacheEntries is the capacity of the LRU cache of cold answers.
	odCacheEntries = 256
	// odMaxCandidates bounds the admission cache (the per-source query
	// counters); at capacity the least recently queried candidate is dropped.
	odMaxCandidates = 4096
	// odMaxPushes bounds the work of a single on-demand push. When the cap is
	// hit the answer is still sound — the advertised epsilon grows to cover
	// the unpushed residual.
	odMaxPushes int64 = 4_000_000
)

// withDefaults resolves the zero values documented on each field.
func (o OnDemandOptions) withDefaults() OnDemandOptions {
	if o.Epsilon <= 0 {
		o.Epsilon = 1e-4
	}
	if o.MaxAutoSources <= 0 {
		o.MaxAutoSources = 64
	}
	return o
}

// QueryInfo describes how a QueryTopK/QueryEstimate answer was produced.
type QueryInfo struct {
	// Approx is true when the answer came from the on-demand path (one-shot
	// push) rather than a tracked source's converged snapshot.
	Approx bool
	// Epsilon bounds the absolute error of every estimate in the answer:
	// the snapshot's configured ε on the tracked path, the push's achieved
	// max residual on the on-demand path. Both are per-vertex bounds on the
	// same contribution vector.
	Epsilon float64
	// Snapshot is the snapshot metadata of the answer. On the on-demand
	// path it is synthesized: Epoch 0 marks "not a tracked snapshot", and
	// MaxResidual/Epsilon carry the push's achieved values.
	Snapshot SnapshotInfo
	// Promoted reports that this query crossed the promotion threshold and
	// the source is now tracked; subsequent reads take the exact path.
	Promoted bool
	// Cached reports that the answer was served from the on-demand result
	// cache rather than recomputed. A cached answer is the computed one,
	// bit for bit (same graph generation, so same bound).
	Cached bool
	// Coalesced reports that this query shared the computation of an
	// identical in-flight query instead of pushing redundantly.
	Coalesced bool
	// Truncated reports that the push stopped at the fixed safety cap on one
	// push's work (4,000,000 pushes); Epsilon still soundly bounds the error.
	Truncated bool
}

// onDemand is the Service's on-demand query engine. All fields are
// internally synchronized; the Service calls it from arbitrary reader
// goroutines.
type onDemand struct {
	opts OnDemandOptions
	svc  *Service

	// snap caches the graph view the queries run against, keyed by the
	// service's graph generation. It is rebuilt on the pipeline goroutine
	// (serialized with writes — Graph itself is not safe for concurrent use),
	// at a cost proportional to the delta segments present, not graph size.
	snap atomic.Pointer[odSnapshot]

	// tokens is the one bound on cold pushes: a GOMAXPROCS-slot semaphore.
	// A flight's leader sends to acquire a slot, under its context, and
	// receives to give it back.
	tokens chan struct{}

	// fmu guards the singleflight table of in-flight cold computations.
	fmu     sync.Mutex
	flights map[odKey]*odFlight

	// cache is the bounded LRU of computed answers.
	cache *odCache

	// mu guards the admission cache and serializes auto-registry mutations.
	mu    sync.Mutex
	clock int64
	cand  map[VertexID]*odCandidate

	// auto maps each auto-promoted source to its last-use tick. touch() runs
	// on every tracked-path read, so the registry is copy-on-write: readers
	// load the map lock-free and refresh recency through per-entry atomics;
	// mutations (promotion, eviction — rare) publish a fresh copy under mu.
	auto atomic.Pointer[map[VertexID]*atomic.Int64]
	tick atomic.Int64 // recency clock for auto sources

	queries           atomic.Int64
	snapshotBuilds    atomic.Int64
	lastSnapshotDelta atomic.Int64
	promotions        atomic.Int64
	evictions         atomic.Int64
	coldPushes        atomic.Int64
	coalesced         atomic.Int64
	cacheHits         atomic.Int64
	cacheMisses       atomic.Int64
	lastLatency       atomic.Int64 // nanoseconds
	totalLatency      atomic.Int64 // nanoseconds
}

// odSnapshot is the epoch-pinned layered view cold queries walk, tagged with
// the graph generation it was taken at.
type odSnapshot struct {
	gen  uint64
	view *graph.View
}

// odCandidate is one admission-cache entry: how often and how recently an
// untracked source has been queried.
type odCandidate struct {
	count int
	last  int64
}

func newOnDemand(svc *Service, opts OnDemandOptions) *onDemand {
	od := &onDemand{
		opts:    opts.withDefaults(),
		svc:     svc,
		cand:    make(map[VertexID]*odCandidate),
		tokens:  make(chan struct{}, fp.DefaultWorkers()),
		flights: make(map[odKey]*odFlight),
		cache:   newODCache(odCacheEntries),
	}
	empty := make(map[VertexID]*atomic.Int64)
	od.auto.Store(&empty)
	return od
}

// close waits the in-flight cold pushes out by taking every token, and keeps
// them. The service calls it once, after the pipeline has exited: svc.done is
// closed by then, so queries blocked on the bound fail with ErrServiceClosed
// while pushes that hold a token complete and answer their waiters.
func (od *onDemand) close() {
	for range cap(od.tokens) {
		od.tokens <- struct{}{}
	}
}

// mutateAuto publishes a modified copy of the auto-source registry. Callers
// hold od.mu (serializing mutations); touch() readers stay lock-free.
func (od *onDemand) mutateAuto(f func(map[VertexID]*atomic.Int64)) {
	old := *od.auto.Load()
	m := make(map[VertexID]*atomic.Int64, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	f(m)
	od.auto.Store(&m)
}

// OnDemandStats reports the on-demand query path's counters.
type OnDemandStats struct {
	// Queries counts answers served by the on-demand (approximate) path —
	// computed, coalesced, or cached alike. Reads that hit a tracked source,
	// including promoted ones, do not count here.
	Queries int64 `json:"queries"`
	// ColdPushes counts cold pushes actually executed; Queries minus
	// ColdPushes is the work the coalescer and result cache saved.
	ColdPushes int64 `json:"cold_pushes"`
	// CacheHits and CacheMisses count result-cache lookups. Coalesced counts
	// queries that shared an identical in-flight computation instead of
	// pushing redundantly.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Coalesced   int64 `json:"coalesced"`
	// CacheEntries and CacheCapacity describe the result cache; PoolWorkers
	// and PoolDepth the cold-push bound (its tokens, and how many are held
	// right now).
	CacheEntries  int   `json:"cache_entries"`
	CacheCapacity int   `json:"cache_capacity"`
	PoolWorkers   int   `json:"pool_workers"`
	PoolDepth     int64 `json:"pool_depth"`
	// CacheAnswerEntries is the summed length of the cached answers' sparse
	// estimate vectors (÷ CacheEntries = entries per answer) and CacheBytes
	// the memory those vectors hold — what the result cache keeps resident.
	CacheAnswerEntries int64 `json:"cache_answer_entries"`
	CacheBytes         int64 `json:"cache_bytes"`
	// SnapshotBuilds counts graph-view rebuilds (one per graph mutation
	// generation actually queried, not per query). Each build copies only
	// the delta-segment headers present at that moment, not the graph.
	SnapshotBuilds int64 `json:"snapshot_builds"`
	// LastSnapshotDeltaEdges is the number of delta-segment adjacency
	// entries the most recent view build layered over the shared CSR base —
	// the touched-proportional cost the ondemand bench asserts on. 0 means
	// the last build handed out a fully compacted base.
	LastSnapshotDeltaEdges int64 `json:"last_snapshot_delta_edges"`
	// Promotions and Evictions count admission-cache decisions: sources
	// promoted into tracked state, and auto-promoted sources evicted to
	// make room.
	Promotions int64 `json:"promotions"`
	Evictions  int64 `json:"evictions"`
	// Candidates is the current admission-cache size, AutoSources the
	// number of currently tracked auto-promoted sources.
	Candidates  int `json:"candidates"`
	AutoSources int `json:"auto_sources"`
	// LastLatency and TotalLatency time on-demand answers (excluding
	// promotion work).
	LastLatency  time.Duration `json:"last_ns"`
	TotalLatency time.Duration `json:"total_ns"`
}

func (od *onDemand) stats() *OnDemandStats {
	od.mu.Lock()
	cands := len(od.cand)
	od.mu.Unlock()
	autos := len(*od.auto.Load())
	st := &OnDemandStats{
		Queries:                od.queries.Load(),
		ColdPushes:             od.coldPushes.Load(),
		CacheHits:              od.cacheHits.Load(),
		CacheMisses:            od.cacheMisses.Load(),
		Coalesced:              od.coalesced.Load(),
		PoolWorkers:            cap(od.tokens),
		PoolDepth:              int64(len(od.tokens)),
		SnapshotBuilds:         od.snapshotBuilds.Load(),
		LastSnapshotDeltaEdges: od.lastSnapshotDelta.Load(),
		Promotions:             od.promotions.Load(),
		Evictions:              od.evictions.Load(),
		Candidates:             cands,
		AutoSources:            autos,
		LastLatency:            time.Duration(od.lastLatency.Load()),
		TotalLatency:           time.Duration(od.totalLatency.Load()),
	}
	st.CacheEntries, st.CacheAnswerEntries, st.CacheBytes = od.cache.resident()
	st.CacheCapacity = od.cache.cap
	return st
}

// QueryTopK returns the k vertices with the largest PPR estimates for
// source. A tracked source is served from its converged snapshot exactly
// like TopK; an untracked source is answered by the on-demand path when it
// is enabled (QueryInfo.Approx true, QueryInfo.Epsilon the achieved bound)
// and with ErrUnknownSource otherwise.
func (s *Service) QueryTopK(source VertexID, k int) ([]VertexScore, QueryInfo, error) {
	return s.QueryTopKCtx(context.Background(), source, k)
}

// QueryTopKCtx is QueryTopK with bounded admission for the pipeline work and
// the cold-push token an on-demand answer may need (view refresh after a
// graph mutation, the push itself, promotion): if those stay contended
// until ctx is done the query gives up with ErrOverloaded, having had no
// effect. Tracked-source reads never touch the pipeline and ignore ctx.
func (s *Service) QueryTopKCtx(ctx context.Context, source VertexID, k int) ([]VertexScore, QueryInfo, error) {
	if top, info, err := s.TopKInfo(source, k); err == nil {
		return top, QueryInfo{Epsilon: info.Epsilon, Snapshot: info}, nil
	} else if !errorIsUnknownSource(err) || s.od == nil {
		return nil, QueryInfo{}, err
	}
	e, qi, err := s.onDemandQuery(ctx, source)
	if err != nil {
		return nil, QueryInfo{}, err
	}
	return e.topK(k), qi, nil
}

// QueryEstimate returns the PPR estimate of v with respect to source,
// falling back to the on-demand path for untracked sources exactly like
// QueryTopK.
func (s *Service) QueryEstimate(source, v VertexID) (float64, QueryInfo, error) {
	return s.QueryEstimateCtx(context.Background(), source, v)
}

// QueryEstimateCtx is QueryEstimate with bounded admission (see
// QueryTopKCtx).
func (s *Service) QueryEstimateCtx(ctx context.Context, source, v VertexID) (float64, QueryInfo, error) {
	if est, info, err := s.EstimateInfo(source, v); err == nil {
		return est, QueryInfo{Epsilon: info.Epsilon, Snapshot: info}, nil
	} else if !errorIsUnknownSource(err) || s.od == nil {
		return 0, QueryInfo{}, err
	}
	e, qi, err := s.onDemandQuery(ctx, source)
	if err != nil {
		return 0, QueryInfo{}, err
	}
	return push.SparseValue(e.ids, e.vals, v), qi, nil
}

// errorIsUnknownSource reports whether err is the untracked-source error —
// the only error the on-demand path may absorb.
func errorIsUnknownSource(err error) bool {
	return err != nil && errors.Is(err, ErrUnknownSource)
}

// odKey identifies a cold answer: the (source, graph generation) pair the
// coalescer and the result cache are keyed by. The generation moves on every
// effective mutation (and not on compaction), so staleness needs no clocks.
type odKey struct {
	source VertexID
	gen    uint64
}

// odFlight is one in-flight cold computation; concurrent identical queries
// wait on done and share entry/err.
type odFlight struct {
	done  chan struct{}
	entry *odEntry
	err   error
}

// odEntry is one computed cold answer. It is immutable after publication
// except for the lazily memoized ranking, so cached and coalesced readers
// share it freely.
type odEntry struct {
	// ids (ascending) and vals are the sparse estimate vector: every vertex
	// with a nonzero estimate, and exactly 0 for all others.
	ids  []VertexID
	vals []float64
	// isolated marks a source outside the snapshot: no walk from another
	// vertex can step into it, and its own walk contributes the α of its
	// first step, so π_v(s) = α·1{v=s} exactly and the answer is that one
	// entry.
	isolated bool
	eps      float64
	// truncated records that the push stopped at odMaxPushes; eps covers the
	// unfinished work.
	truncated bool
	vertices  int

	// mu guards top, the memoized exact top-len ranking, built on the first
	// topK read and extended if a larger k arrives. scoreBetter is a strict
	// total order, so a prefix of a longer ranking is bit-identical to a
	// direct top-k selection.
	mu  sync.Mutex
	top []VertexScore
}

// topK returns the entry's top-k ranking, memoized so cache hits are O(k)
// after the first read instead of a selection over the answer per query.
func (e *odEntry) topK(k int) []VertexScore {
	if k <= 0 {
		return nil
	}
	if e.isolated {
		return []VertexScore{{Vertex: e.ids[0], Score: e.vals[0]}}
	}
	if k > e.vertices {
		k = e.vertices
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.top) < k {
		e.top = push.AppendTopKSparse(nil, e.vertices, e.ids, e.vals, max(2*k, 64))
	}
	out := make([]VertexScore, k)
	copy(out, e.top[:k])
	return out
}

// queryInfo synthesizes the QueryInfo a read of this entry reports.
func (e *odEntry) queryInfo(source VertexID) QueryInfo {
	return QueryInfo{
		Approx:    true,
		Epsilon:   e.eps,
		Truncated: e.truncated,
		Snapshot: SnapshotInfo{
			Source:      source,
			MaxResidual: e.eps,
			Epsilon:     e.eps,
			Vertices:    e.vertices,
		},
	}
}

// onDemandQuery answers an untracked source — from the result cache, by
// joining an identical in-flight computation, or by running the push — and
// feeds the admission cache (possibly promoting the source).
func (s *Service) onDemandQuery(ctx context.Context, source VertexID) (*odEntry, QueryInfo, error) {
	od := s.od
	if source < 0 {
		return nil, QueryInfo{}, fmt.Errorf("dynppr: source must be non-negative, got %d", source)
	}
	start := time.Now()
	snap, err := od.snapshot(ctx)
	if err != nil {
		return nil, QueryInfo{}, err
	}
	n := snap.view.NumVertices()
	if int(source) >= n {
		// The source is outside the snapshot: an isolated vertex, answered
		// exactly (see odEntry.isolated) — no push, no cache. It counts as a
		// served query but stays out of the admission cache: promotion cannot
		// improve an exact answer, and tracking the id would grow the graph
		// (and the journal) to it on nothing but read traffic.
		e := &odEntry{
			ids:      []VertexID{source},
			vals:     []float64{s.opts.Options.Alpha},
			isolated: true,
			vertices: n,
		}
		qi := e.queryInfo(source)
		qi.Snapshot.MaxResidual, qi.Snapshot.Epsilon = 0, 0
		od.served(start)
		return e, qi, nil
	}
	key := odKey{source: source, gen: snap.gen}
	if e := od.cache.get(key); e != nil {
		od.cacheHits.Add(1)
		qi := e.queryInfo(source)
		qi.Cached = true
		od.finish(ctx, source, start, &qi)
		return e, qi, nil
	}
	od.cacheMisses.Add(1)
	e, shared, err := od.compute(ctx, key, snap)
	if err != nil {
		return nil, QueryInfo{}, err
	}
	qi := e.queryInfo(source)
	qi.Coalesced = shared
	od.finish(ctx, source, start, &qi)
	return e, qi, nil
}

// finish settles a served on-demand answer: latency accounting, the
// admission-cache note, and the possible promotion. Every served query
// counts — cached and coalesced answers are demand too.
func (od *onDemand) finish(ctx context.Context, source VertexID, start time.Time, qi *QueryInfo) {
	od.served(start)
	od.note(source)
	qi.Promoted = od.maybePromote(ctx, source)
}

// served counts one answered on-demand query and its latency.
func (od *onDemand) served(start time.Time) {
	elapsed := time.Since(start)
	od.queries.Add(1)
	od.lastLatency.Store(int64(elapsed))
	od.totalLatency.Add(int64(elapsed))
}

// compute coalesces onto an identical in-flight computation or leads one:
// the leader acquires a cold-push token under its context and runs the push
// on its own goroutine. The bool result reports sharing (for stats and
// QueryInfo.Coalesced).
func (od *onDemand) compute(ctx context.Context, key odKey, snap *odSnapshot) (*odEntry, bool, error) {
	for {
		od.fmu.Lock()
		if f, ok := od.flights[key]; ok {
			od.fmu.Unlock()
			select {
			case <-f.done:
				if f.err != nil {
					// The leader failed to get a token on its own context.
					// Ours may still be live — retry; the dead flight is
					// gone, so the next lap either leads or joins a fresh
					// one.
					if errors.Is(f.err, ErrOverloaded) && ctx.Err() == nil {
						continue
					}
					return nil, true, f.err
				}
				od.coalesced.Add(1)
				return f.entry, true, nil
			case <-ctx.Done():
				return nil, true, fmt.Errorf("%w: %v", ErrOverloaded, ctx.Err())
			}
		}
		f := &odFlight{done: make(chan struct{})}
		od.flights[key] = f
		od.fmu.Unlock()

		select {
		case od.tokens <- struct{}{}:
			f.entry, f.err = od.runCold(key, snap)
			<-od.tokens
		case <-od.svc.done:
			f.err = ErrServiceClosed
		case <-ctx.Done():
			f.err = fmt.Errorf("%w: %v", ErrOverloaded, ctx.Err())
		}
		od.fmu.Lock()
		delete(od.flights, key)
		od.fmu.Unlock()
		close(f.done)
		return f.entry, false, f.err
	}
}

// runCold executes one cold push and publishes the entry to the result
// cache.
func (od *onDemand) runCold(key odKey, snap *odSnapshot) (*odEntry, error) {
	cfg := push.Config{Alpha: od.svc.opts.Options.Alpha, Epsilon: od.opts.Epsilon}
	pr, err := push.ColdPushBounded(snap.view, key.source, cfg, odMaxPushes)
	if err != nil {
		return nil, err
	}
	od.coldPushes.Add(1)
	e := &odEntry{
		ids:       pr.Vertices,
		vals:      pr.Estimates,
		eps:       pr.MaxResidual,
		truncated: pr.Capped,
		vertices:  snap.view.NumVertices(),
	}
	od.cache.put(key, e)
	return e, nil
}

// odCache is the bounded LRU of cold answers.
type odCache struct {
	mu  sync.Mutex
	cap int
	// gen is the newest generation put has seen. Keys carry the generation
	// and it only advances, so every entry of an older one is unreachable:
	// put drops them all when a newer generation arrives, and ignores a late
	// answer for an older one (a query pinned before the write).
	gen uint64
	m   map[odKey]*odCacheNode
	// Intrusive doubly-linked LRU list; head is most recent.
	head, tail *odCacheNode
	// answerEntries and bytes total the resident answers' sparse vectors.
	answerEntries, bytes int64
}

type odCacheNode struct {
	key        odKey
	e          *odEntry
	prev, next *odCacheNode
}

func newODCache(capacity int) *odCache {
	return &odCache{cap: capacity, m: make(map[odKey]*odCacheNode, capacity)}
}

func (c *odCache) get(key odKey) *odEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.m[key]
	if n == nil {
		return nil
	}
	c.moveToFront(n)
	return n.e
}

func (c *odCache) put(key odKey, e *odEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if key.gen < c.gen {
		return
	}
	if key.gen > c.gen {
		c.gen = key.gen
		clear(c.m)
		c.head, c.tail = nil, nil
		c.answerEntries, c.bytes = 0, 0
	}
	if n := c.m[key]; n != nil {
		c.account(n.e, -1)
		n.e = e
		c.account(e, 1)
		c.moveToFront(n)
		return
	}
	n := &odCacheNode{key: key, e: e}
	c.m[key] = n
	c.pushFront(n)
	c.account(e, 1)
	for len(c.m) > c.cap {
		last := c.tail
		c.unlink(last)
		delete(c.m, last.key)
		c.account(last.e, -1)
	}
}

// account adds (sign 1) or removes (sign -1) an answer's sparse vectors
// from the resident totals.
func (c *odCache) account(e *odEntry, sign int64) {
	c.answerEntries += sign * int64(len(e.ids))
	c.bytes += sign * int64(len(e.ids)*4+len(e.vals)*8)
}

// resident reports the cached answers, their summed sparse length and the
// bytes those vectors hold.
func (c *odCache) resident() (entries int, answerEntries, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m), c.answerEntries, c.bytes
}

func (c *odCache) pushFront(n *odCacheNode) {
	n.prev, n.next = nil, c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *odCache) unlink(n *odCacheNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *odCache) moveToFront(n *odCacheNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

// snapshot returns the pinned graph view for the current graph generation,
// building it on the pipeline goroutine when a mutation has invalidated the
// cached one. The build layers the current delta segments over the shared
// immutable base — O(segments touched since the last compaction), where the
// old implementation re-materialized a full CSR per generation.
func (od *onDemand) snapshot(ctx context.Context) (*odSnapshot, error) {
	s := od.svc
	if cur := od.snap.Load(); cur != nil && cur.gen == s.graphGen.Load() {
		return cur, nil
	}
	return onPipeline(ctx, s, false, func() (*odSnapshot, error) {
		cur := od.snap.Load()
		// Concurrent refreshers coalesce: the generation is re-read on the
		// pipeline, where it cannot advance under us.
		if gen := s.graphGen.Load(); cur == nil || cur.gen != gen {
			view := s.g.View()
			cur = &odSnapshot{gen: gen, view: view}
			od.snap.Store(cur)
			od.snapshotBuilds.Add(1)
			od.lastSnapshotDelta.Store(int64(view.DeltaEdges()))
		}
		return cur, nil
	})
}

// touch refreshes the last-use tick of an auto-promoted source so exact-path
// reads keep it warm against eviction. Called from the shared tracked-read
// lookup, so every read API — TopK, Estimate, their Info variants, and the
// Query* entry points on tracked answers — counts as use. Lock-free — the
// read path must not pay a mutex for promotion bookkeeping, or a promoted
// source would serve slower than a hand-tracked one (the parity the CI
// benchmark gate asserts).
func (od *onDemand) touch(source VertexID) {
	if od == nil || od.opts.PromoteAfter <= 0 {
		return
	}
	if e, ok := (*od.auto.Load())[source]; ok {
		e.Store(od.tick.Add(1))
	}
}

// note records one on-demand query against the admission cache, dropping the
// least recently used candidate when the cache is full.
func (od *onDemand) note(source VertexID) {
	if od.opts.PromoteAfter <= 0 {
		return
	}
	od.mu.Lock()
	defer od.mu.Unlock()
	od.clock++
	c := od.cand[source]
	if c == nil {
		if len(od.cand) >= odMaxCandidates {
			var coldest VertexID
			cold := int64(-1)
			for v, cc := range od.cand {
				if cold < 0 || cc.last < cold {
					cold, coldest = cc.last, v
				}
			}
			delete(od.cand, coldest)
		}
		c = &odCandidate{}
		od.cand[source] = c
	}
	c.count++
	c.last = od.clock
}

// maybePromote promotes source into tracked state once its query count
// reaches the threshold, then evicts the coldest auto-promoted source when
// the auto set ran over capacity. The order matters: the add happens FIRST,
// so a failed promotion (overloaded pipeline) tears nothing down — the old
// evict-then-add order could lose a healthy tracked source and gain nothing.
// MaxAutoSources is policy, not a hard cap; the set transiently holds one
// extra entry between the add and the eviction. Promotion failures are
// swallowed — the query that triggered them already has its answer, and the
// candidate's count is kept so a later query retries.
func (od *onDemand) maybePromote(ctx context.Context, source VertexID) bool {
	if od.opts.PromoteAfter <= 0 {
		return false
	}
	s := od.svc
	od.mu.Lock()
	c := od.cand[source]
	if c == nil || c.count < od.opts.PromoteAfter {
		od.mu.Unlock()
		return false
	}
	od.mu.Unlock()

	// The addition and the eviction go through the ordinary live
	// source-management path, outside od.mu (the pipeline never takes it, so
	// there is no lock-order hazard — just no reason to hold it while a cold
	// start runs).
	if err := s.AddSourceCtx(ctx, source); err != nil {
		// "already tracked" means someone else (a concurrent promotion or a
		// manual AddSource) won the race; either way the source is tracked
		// now and the candidate entry has served its purpose.
		if _, tracked := (*s.table.Load())[source]; !tracked {
			return false // overloaded or closed: retry on a later query
		}
		od.mu.Lock()
		delete(od.cand, source)
		od.mu.Unlock()
		return false
	}
	victim := VertexID(-1)
	od.mu.Lock()
	delete(od.cand, source)
	e := new(atomic.Int64)
	e.Store(od.tick.Add(1))
	od.mutateAuto(func(m map[VertexID]*atomic.Int64) { m[source] = e })
	if auto := *od.auto.Load(); len(auto) > od.opts.MaxAutoSources {
		cold := int64(-1)
		for v, last := range auto {
			if v == source {
				continue
			}
			if t := last.Load(); cold < 0 || t < cold {
				cold, victim = t, v
			}
		}
	}
	od.mu.Unlock()
	od.promotions.Add(1)
	if victim >= 0 {
		err := s.RemoveSourceCtx(ctx, victim)
		if err == nil || errors.Is(err, ErrUnknownSource) {
			od.mu.Lock()
			od.mutateAuto(func(m map[VertexID]*atomic.Int64) { delete(m, victim) })
			od.mu.Unlock()
		}
		// A failed removal (overloaded pipeline) leaves the registry
		// transiently over capacity; the next promotion picks a victim
		// again.
		if err == nil {
			od.evictions.Add(1)
		}
	}
	return true
}
