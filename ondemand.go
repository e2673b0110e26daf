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
// whichever of QueryTopKCtx or QueryEstimateCtx asked first — is a
// bit-deterministic function of (graph version, source, α, on-demand ε,
// odMaxPushes) and carries the per-vertex bound it achieved. A caller who
// needs better than the coarse ε has two levers, both deterministic: a
// smaller OnDemandOptions.Epsilon, or tracking the source at the tracked ε
// (promotion or UpdateSources, journaled on a persistent service).
//
// Cold answers are computed concurrently but never redundantly, and each is
// kept in one place: odTable, a bounded LRU of answers keyed by source at the
// newest Graph.Version it has seen. The query that claims an absent
// source's slot computes the answer — taking one of GOMAXPROCS tokens under
// its context, so overload surfaces ErrOverloaded and never partial effects —
// while identical queries that arrive meanwhile join the in-flight entry, and
// later ones read the finished entry as a cache hit: an O(k) read between
// graph mutations. This is the only place on the serving path identical reads
// are shared. A logical change of the graph invalidates the table for free
// because the graph's version moves; a compaction, a refused update or the
// tracking of an in-graph source does not move it. A query pinned to an
// older version computes its answer without tabling it.
//
// A frequency-based admission cache (an LRU of per-source query counts)
// watches on-demand traffic: a source queried at least PromoteAfter times is
// promoted into tracked state through the service's one mutation path, which
// adds it and — when the auto-promoted set is at capacity — evicts the
// coldest auto-promoted source in the same pipeline task. The auto mark and
// its recency live on the tracked source itself, and the journal and the
// checkpoint keep the mark, so a source added by hand — even one re-added
// after its promotion was removed — is never evicted, and a promoted one
// stays evictable across restarts. Hot long-tail users therefore graduate to
// exact incremental maintenance automatically, and fall back to approximate
// answers — never errors — when they cool off.
package dynppr

import (
	"cmp"
	"container/list"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dynppr/internal/fp"
	"dynppr/internal/graph"
	"dynppr/internal/push"
	"dynppr/internal/wal"
)

// OnDemandOptions configure the approximate query path for untracked
// sources. The zero value disables it: QueryTopKCtx/QueryEstimateCtx then
// behave exactly like AppendTopK/EstimateInfo, returning ErrUnknownSource
// for untracked sources.
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
	// odCacheEntries is the capacity of the answer table.
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

// QueryInfo describes how a QueryTopKCtx/QueryEstimateCtx answer was
// produced.
type QueryInfo struct {
	// Approx is true when the answer came from the on-demand path (one-shot
	// push) rather than a tracked source's converged snapshot.
	Approx bool
	// Snapshot is the snapshot metadata of the answer. Its Epsilon bounds
	// the absolute error of every estimate in the answer: the snapshot's
	// configured ε on the tracked path, the push's achieved max residual on
	// the on-demand path. Both are per-vertex bounds on the same
	// contribution vector. On the on-demand path the metadata is
	// synthesized: Epoch 0 marks "not a tracked snapshot", and
	// MaxResidual/Epsilon carry the push's achieved values.
	Snapshot SnapshotInfo
	// Promoted reports that this query crossed the promotion threshold and
	// the source is now tracked; subsequent reads take the exact path.
	Promoted bool
	// Cached reports that the answer was served from the on-demand result
	// cache rather than recomputed. A cached answer is the computed one,
	// bit for bit (same graph version, so same bound).
	Cached bool
	// Coalesced reports that this query shared the computation of an
	// identical in-flight query instead of pushing redundantly.
	Coalesced bool
	// Truncated reports that the push stopped at the fixed safety cap on one
	// push's work (4,000,000 pushes); Snapshot.Epsilon still soundly bounds
	// the error.
	Truncated bool
}

// onDemand is the Service's on-demand query engine. All fields are
// internally synchronized; the Service calls it from arbitrary reader
// goroutines.
type onDemand struct {
	opts OnDemandOptions
	svc  *Service

	// snap caches the graph view the queries run against; it is current
	// while its Version is the graph's. It is rebuilt on the pipeline
	// goroutine (serialized with writes — Graph itself is not safe for
	// concurrent use), at a cost proportional to the delta segments present,
	// not graph size.
	snap atomic.Pointer[graph.View]

	// tokens is the one bound on cold pushes: a GOMAXPROCS-slot semaphore.
	// The query computing an entry sends to acquire a slot, under its
	// context, and receives to give it back.
	tokens chan struct{}

	// table holds every cold answer, in flight or done.
	table *odTable

	// mu guards the admission cache: cand indexes lru, whose elements hold
	// *odCandidate, most recently queried at the front.
	mu   sync.Mutex
	cand map[VertexID]*list.Element
	lru  list.List

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

// odCandidate is one admission-cache entry: how often an untracked source
// has been queried.
type odCandidate struct {
	source VertexID
	count  int
}

func newOnDemand(svc *Service, opts OnDemandOptions) *onDemand {
	return &onDemand{
		opts:   opts.withDefaults(),
		svc:    svc,
		cand:   make(map[VertexID]*list.Element),
		tokens: make(chan struct{}, fp.DefaultWorkers()),
		table:  newODTable(odCacheEntries),
	}
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

// OnDemandStats reports the on-demand query path's counters.
type OnDemandStats struct {
	// Queries counts answers served by the on-demand (approximate) path —
	// computed, coalesced, or cached alike. Reads that hit a tracked source,
	// including promoted ones, do not count here.
	Queries int64 `json:"queries"`
	// ColdPushes counts cold pushes actually executed; Queries minus
	// ColdPushes is the work the answer table saved.
	ColdPushes int64 `json:"cold_pushes"`
	// CacheHits and CacheMisses count answer-table lookups that found a
	// finished answer and those that did not. Coalesced counts queries that
	// shared an identical in-flight computation instead of pushing
	// redundantly.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Coalesced   int64 `json:"coalesced"`
	// CacheEntries and CacheCapacity describe the answer table (in-flight
	// answers hold a slot too); PoolWorkers
	// and PoolDepth the cold-push bound (its tokens, and how many are held
	// right now).
	CacheEntries  int   `json:"cache_entries"`
	CacheCapacity int   `json:"cache_capacity"`
	PoolWorkers   int   `json:"pool_workers"`
	PoolDepth     int64 `json:"pool_depth"`
	// CacheAnswerEntries is the summed length of the cached answers' sparse
	// estimate vectors (÷ CacheEntries = entries per answer) and CacheBytes
	// the memory those vectors hold — what the answer table keeps resident.
	CacheAnswerEntries int64 `json:"cache_answer_entries"`
	CacheBytes         int64 `json:"cache_bytes"`
	// SnapshotBuilds counts graph-view rebuilds (one per Graph.Version
	// actually queried, not per query). Each build copies only
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
	autos := 0
	for _, src := range *od.svc.table.Load() {
		if src.auto.Load() {
			autos++
		}
	}
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
	st.CacheEntries, st.CacheAnswerEntries, st.CacheBytes = od.table.resident()
	st.CacheCapacity = od.table.cap
	return st
}

// QueryTopKCtx returns the k vertices with the largest PPR estimates for
// source. A tracked source is served from its converged snapshot exactly
// like AppendTopK; an untracked source is answered by the on-demand path
// when it is enabled (QueryInfo.Approx true, QueryInfo.Snapshot.Epsilon the
// achieved bound) and with ErrUnknownSource otherwise. ctx bounds admission
// for the pipeline work and the cold-push token an on-demand answer may need
// (view refresh after a graph mutation, the push itself, promotion): if
// those stay contended until ctx is done the query gives up with
// ErrOverloaded, having had no effect; context.Background() waits without
// bound. Tracked-source reads never touch the pipeline and ignore ctx.
func (s *Service) QueryTopKCtx(ctx context.Context, source VertexID, k int) ([]VertexScore, QueryInfo, error) {
	if top, info, err := s.AppendTopK(nil, source, k); err == nil {
		return top, QueryInfo{Snapshot: info}, nil
	} else if !errors.Is(err, ErrUnknownSource) || s.od == nil {
		return nil, QueryInfo{}, err
	}
	e, qi, err := s.onDemandQuery(ctx, source)
	if err != nil {
		return nil, QueryInfo{}, err
	}
	return e.topK(k), qi, nil
}

// QueryEstimateCtx returns the PPR estimate of v with respect to source,
// falling back to the on-demand path for untracked sources, under the same
// bounded admission, exactly like QueryTopKCtx.
func (s *Service) QueryEstimateCtx(ctx context.Context, source, v VertexID) (float64, QueryInfo, error) {
	if est, info, err := s.EstimateInfo(source, v); err == nil {
		return est, QueryInfo{Snapshot: info}, nil
	} else if !errors.Is(err, ErrUnknownSource) || s.od == nil {
		return 0, QueryInfo{}, err
	}
	e, qi, err := s.onDemandQuery(ctx, source)
	if err != nil {
		return 0, QueryInfo{}, err
	}
	return push.SparseValue(e.ids, e.vals, v), qi, nil
}

// odEntry is one cold answer. The query that claimed it computes it and
// closes done; from then on it is immutable except for the lazily memoized
// ranking, so the queries that joined or hit it share it freely.
type odEntry struct {
	source VertexID
	// done closes once the answer is computed or err is set.
	done chan struct{}
	err  error
	// settled, guarded by the table's mutex, records that the table
	// accounts the answer's bytes.
	settled bool

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
func (e *odEntry) queryInfo() QueryInfo {
	return QueryInfo{
		Approx:    true,
		Truncated: e.truncated,
		Snapshot: SnapshotInfo{
			Source:      e.source,
			MaxResidual: e.eps,
			Epsilon:     e.eps,
			Vertices:    e.vertices,
		},
	}
}

// onDemandQuery answers an untracked source — from the answer table, by
// joining an identical in-flight computation, or by running the push — and
// feeds the admission cache (possibly promoting the source). Every served
// query is demand: cached and coalesced answers count toward promotion too.
func (s *Service) onDemandQuery(ctx context.Context, source VertexID) (*odEntry, QueryInfo, error) {
	od := s.od
	if source < 0 {
		return nil, QueryInfo{}, fmt.Errorf("dynppr: source must be non-negative, got %d", source)
	}
	start := time.Now()
	view, err := od.snapshot(ctx)
	if err != nil {
		return nil, QueryInfo{}, err
	}
	n := view.NumVertices()
	if int(source) >= n {
		// The source is outside the snapshot: an isolated vertex, answered
		// exactly (see odEntry.isolated) — no push, no table. It counts as a
		// served query but stays out of the admission cache: promotion cannot
		// improve an exact answer, and tracking the id would grow the graph
		// (and the journal) to it on nothing but read traffic.
		e := &odEntry{
			source:   source,
			ids:      []VertexID{source},
			vals:     []float64{s.opts.Options.Alpha},
			isolated: true,
			vertices: n,
		}
		od.served(start)
		return e, e.queryInfo(), nil
	}
	e, qi, err := od.answer(ctx, source, view)
	if err != nil {
		return nil, QueryInfo{}, err
	}
	od.served(start)
	od.note(source)
	qi.Promoted = od.maybePromote(ctx, source)
	return e, qi, nil
}

// served counts one answered on-demand query and its latency.
func (od *onDemand) served(start time.Time) {
	elapsed := time.Since(start)
	od.queries.Add(1)
	od.lastLatency.Store(int64(elapsed))
	od.totalLatency.Add(int64(elapsed))
}

// answer returns source's cold answer at view's version through the
// table: a finished entry is a cache hit, an in-flight one is joined
// (coalesced), and a claimed one is computed here. A waiter whose computing
// query gave up at the token bound on its own context does not inherit that
// error while its own context is live: the failed entry has left the table,
// so the next lap computes or joins a fresh one.
func (od *onDemand) answer(ctx context.Context, source VertexID, view *graph.View) (*odEntry, QueryInfo, error) {
	missed := false
	for {
		e, tabled := od.table.claim(source, view.Version())
		select {
		case <-e.done: // tabled and finished
		default:
			if !missed {
				missed = true
				od.cacheMisses.Add(1)
			}
			if !tabled {
				od.compute(ctx, e, view)
			} else {
				select {
				case <-e.done:
				case <-ctx.Done():
					return nil, QueryInfo{}, fmt.Errorf("%w: %v", ErrOverloaded, ctx.Err())
				}
			}
		}
		if e.err != nil {
			if errors.Is(e.err, ErrOverloaded) && ctx.Err() == nil {
				continue
			}
			return nil, QueryInfo{}, e.err
		}
		qi := e.queryInfo()
		switch {
		case !tabled:
		case missed:
			qi.Coalesced = true
			od.coalesced.Add(1)
		default:
			qi.Cached = true
			od.cacheHits.Add(1)
		}
		return e, qi, nil
	}
}

// compute fills a claimed entry: it takes a cold-push token under ctx, runs
// the push on the caller's goroutine, and settles the entry in the table
// before it releases the entry's waiters.
func (od *onDemand) compute(ctx context.Context, e *odEntry, view *graph.View) {
	select {
	case od.tokens <- struct{}{}:
		cfg := push.Config{Alpha: od.svc.opts.Options.Alpha, Epsilon: od.opts.Epsilon}
		pr, err := push.ColdPushBounded(view, e.source, cfg, odMaxPushes)
		<-od.tokens
		if e.err = err; err == nil {
			od.coldPushes.Add(1)
			e.ids, e.vals, e.eps, e.truncated = pr.Vertices, pr.Estimates, pr.MaxResidual, pr.Capped
			e.vertices = view.NumVertices()
		}
	case <-od.svc.done:
		e.err = ErrServiceClosed
	case <-ctx.Done():
		e.err = fmt.Errorf("%w: %v", ErrOverloaded, ctx.Err())
	}
	od.table.settle(e)
	close(e.done)
}

// odTable is the one home of cold answers: a bounded LRU of entries keyed by
// source that holds only the newest graph version it has seen. A claim at
// a newer version drops every entry at once (none can be requested
// again); a claim at an older one — a query pinned before a write — is
// computed without being tabled. An entry holds its slot from its claim on,
// in flight or done. One evicted while in flight still answers the queries
// that joined it, and only a later identical query pushes again — which
// takes more than cap distinct answers in flight at once.
type odTable struct {
	mu      sync.Mutex
	cap     int
	version uint64
	m       map[VertexID]*list.Element
	lru     list.List // of *odEntry, most recently claimed at the front
	// answerEntries and bytes total the settled entries' sparse vectors.
	answerEntries, bytes int64
}

func newODTable(capacity int) *odTable {
	return &odTable{cap: capacity, m: make(map[VertexID]*list.Element, capacity)}
}

// claim returns source's tabled entry at version and true — done (a hit) or in
// flight (to join) — or a fresh entry and false, which the caller must
// compute and settle.
func (t *odTable) claim(source VertexID, version uint64) (*odEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case version < t.version:
		return &odEntry{source: source, done: make(chan struct{})}, false
	case version > t.version:
		t.version = version
		clear(t.m)
		t.lru.Init()
		t.answerEntries, t.bytes = 0, 0
	}
	if el := t.m[source]; el != nil {
		t.lru.MoveToFront(el)
		return el.Value.(*odEntry), true
	}
	e := &odEntry{source: source, done: make(chan struct{})}
	t.m[source] = t.lru.PushFront(e)
	if t.lru.Len() > t.cap {
		t.remove(t.lru.Back())
	}
	return e, false
}

// settle runs once a claimed entry is computed or has failed, before its
// done closes. A tabled answer is accounted; a tabled failure leaves the
// table, so the next identical query computes afresh.
func (t *odTable) settle(e *odEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el := t.m[e.source]
	if el == nil || el.Value != e {
		return // never tabled, evicted, or dropped by a newer version
	}
	if e.err != nil {
		t.remove(el)
		return
	}
	e.settled = true
	t.account(e, 1)
}

// remove drops an entry from the table, and its bytes if it had settled.
func (t *odTable) remove(el *list.Element) {
	e := t.lru.Remove(el).(*odEntry)
	delete(t.m, e.source)
	if e.settled {
		t.account(e, -1)
	}
}

// account adds (sign 1) or removes (sign -1) an answer's sparse vectors
// from the resident totals.
func (t *odTable) account(e *odEntry, sign int64) {
	t.answerEntries += sign * int64(len(e.ids))
	t.bytes += sign * int64(len(e.ids)*4+len(e.vals)*8)
}

// resident reports the tabled entries, in flight ones included, and the
// summed sparse length and bytes of the settled answers among them.
func (t *odTable) resident() (entries int, answerEntries, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lru.Len(), t.answerEntries, t.bytes
}

// snapshot returns the pinned graph view at the graph's current Version,
// building it on the pipeline goroutine when a logical change has made the
// cached one stale. The build layers the current delta segments over the
// shared immutable base — O(segments touched since the last compaction),
// not a full CSR per version.
func (od *onDemand) snapshot(ctx context.Context) (*graph.View, error) {
	s := od.svc
	if cur := od.snap.Load(); cur != nil && cur.Version() == s.graphVersion.Load() {
		return cur, nil
	}
	return onPipeline(ctx, s, func() (*graph.View, error) {
		// Concurrent refreshers coalesce: the version is re-read on the
		// pipeline, where it cannot move under us.
		cur := od.snap.Load()
		if cur == nil || cur.Version() != s.g.Version() {
			cur = s.g.View()
			od.snap.Store(cur)
			od.snapshotBuilds.Add(1)
			od.lastSnapshotDelta.Store(int64(cur.DeltaEdges()))
		}
		return cur, nil
	})
}

// note records one on-demand query against the admission cache, dropping the
// least recently queried candidate when the cache is full.
func (od *onDemand) note(source VertexID) {
	if od.opts.PromoteAfter <= 0 {
		return
	}
	od.mu.Lock()
	defer od.mu.Unlock()
	el := od.cand[source]
	if el == nil {
		if len(od.cand) >= odMaxCandidates {
			delete(od.cand, od.lru.Remove(od.lru.Back()).(*odCandidate).source)
		}
		el = od.lru.PushFront(&odCandidate{source: source})
		od.cand[source] = el
	}
	od.lru.MoveToFront(el)
	el.Value.(*odCandidate).count++
}

// maybePromote promotes source into tracked state once its query count
// reaches the threshold. The promotion is one mutation: the addition and,
// when the auto set would run over MaxAutoSources, the eviction of its
// coldest members (appendEvictions) are validated, journaled and applied in
// one pipeline task, so a promotion that fails admission tears nothing down
// and one that succeeds never leaves the set over capacity. Failures are
// swallowed — the query that triggered them already has its answer — and
// the candidate's count is kept so a later query retries, unless the source
// is tracked already (a concurrent promotion or a manual addition won).
func (od *onDemand) maybePromote(ctx context.Context, source VertexID) bool {
	if od.opts.PromoteAfter <= 0 {
		return false
	}
	od.mu.Lock()
	el := od.cand[source]
	ready := el != nil && el.Value.(*odCandidate).count >= od.opts.PromoteAfter
	od.mu.Unlock()
	if !ready {
		return false
	}
	_, err := od.svc.mutate(ctx, []wal.Record{{Type: wal.RecordPromote, Source: source}}, true)
	if err == nil || errors.Is(err, ErrSourceTracked) {
		// The source is tracked now: its candidate entry has served.
		od.mu.Lock()
		if el := od.cand[source]; el != nil {
			od.lru.Remove(el)
			delete(od.cand, source)
		}
		od.mu.Unlock()
	}
	return err == nil
}

// appendEvictions runs on the pipeline once a promotion has validated. It
// appends the removals that keep the auto-promoted set within
// MaxAutoSources once the promoted source joins it: the coldest
// auto-promoted sources by last use, ties to the lower id.
func (od *onDemand) appendEvictions(recs []wal.Record) []wal.Record {
	// Readers keep refreshing lastUse, so the sort runs on one reading of it.
	type auto struct {
		lastUse int64
		source  VertexID
	}
	var autos []auto
	for _, src := range *od.svc.table.Load() {
		if src.auto.Load() {
			autos = append(autos, auto{src.lastUse.Load(), src.source})
		}
	}
	over := len(autos) + 1 - od.opts.MaxAutoSources
	if over <= 0 {
		return recs
	}
	slices.SortFunc(autos, func(a, b auto) int {
		return cmp.Or(cmp.Compare(a.lastUse, b.lastUse), cmp.Compare(a.source, b.source))
	})
	for _, a := range autos[:over] {
		recs = append(recs, wal.Record{Type: wal.RecordRemoveSource, Source: a.source})
	}
	return recs
}
