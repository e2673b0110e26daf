package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"dynppr"
	"dynppr/internal/promexp"
)

// maxBodyBytes bounds request bodies: a 1 MiB JSON body holds ~30k edge
// updates, far beyond the batch sizes the write pipeline is tuned for.
const maxBodyBytes = 1 << 20

// maxTopK caps the k accepted by /topk and batched topk queries. Rankings
// are materialized per request, so an absurd k is a memory-amplification
// vector; real rankings are tens of entries.
const maxTopK = 1024

// defaultTopK is the ranking length when the k parameter is omitted.
const defaultTopK = 10

// rateBurst is the per-client token-bucket burst size of the rate limiter.
const rateBurst = 16

// defaultAdmissionTimeout bounds a write's wait for a pipeline slot. It is
// half the server's write timeout, so a write always sheds with 429 before
// the connection's write deadline can kill it mid-response.
const defaultAdmissionTimeout = writeTimeout / 2

// HandlerOptions configure the traffic-management behavior of a Handler.
// The zero value is a production-safe default: admission bounded at
// defaultAdmissionTimeout, rate limiting and pprof off.
type HandlerOptions struct {
	// RateLimit is the sustained per-client request rate (requests/second)
	// across the data-plane endpoints, with bursts of rateBurst; 0 disables
	// rate limiting. Clients are keyed by the X-Client-ID header when
	// present, else by remote host. /healthz, /stats, /metrics and
	// /debug/pprof are never limited.
	RateLimit float64
	// AdmissionTimeout bounds how long a write request waits for a slot in
	// the pipeline's bounded queue before being shed with 429. The timeout
	// covers admission only — once a mutation is accepted (and journaled)
	// it always runs to completion, so a 429 guarantees the batch had no
	// effect. <= 0 selects defaultAdmissionTimeout; tests shorten it to
	// force sheds.
	AdmissionTimeout time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiles expose internals and burn CPU, so operators opt in
	// (and should firewall the path).
	EnablePprof bool
}

func (o *HandlerOptions) fill() {
	if o.AdmissionTimeout <= 0 {
		o.AdmissionTimeout = defaultAdmissionTimeout
	}
}

// Handler serves the HTTP/JSON API over one dynppr.Service. Routing:
//
//	GET  /healthz             liveness (503 once the service is closed)
//	GET  /stats               service + per-endpoint HTTP statistics
//	GET  /metrics             Prometheus text-format metrics
//	GET  /sources             tracked sources
//	POST /sources             add/remove tracked sources
//	GET  /topk?source=&k=     top-k ranking towards source
//	GET  /estimate?source=&v= single PPR estimate
//	POST /query               batched topk/estimate queries
//	POST /edges               edge-update batch
//	POST /checkpoint          admin: checkpoint the service's durable state
//	GET  /debug/pprof/...     runtime profiles (only with EnablePprof)
//
// Overload surfaces as 429 Too Many Requests with a Retry-After header:
// either the per-client rate limiter rejected the request, or the write
// pipeline's bounded queue stayed full past the admission timeout. The
// Handler is safe for concurrent use by the http.Server's connection
// goroutines because the Service read path is lock-free and its write path
// is serialized.
type Handler struct {
	svc     *dynppr.Service
	mux     *http.ServeMux
	metrics *Metrics
	opts    HandlerOptions
	limiter *rateLimiter
}

// NewHandler builds the API handler over svc with the given
// traffic-management options (the zero value is the default). The caller
// keeps ownership of svc and is responsible for closing it.
func NewHandler(svc *dynppr.Service, opts HandlerOptions) *Handler {
	opts.fill()
	h := &Handler{
		svc:  svc,
		mux:  http.NewServeMux(),
		opts: opts,
		metrics: newMetrics(
			"/healthz", "/stats", "/sources", "/topk", "/estimate", "/query", "/edges", "/checkpoint",
		),
		limiter: newRateLimiter(opts.RateLimit, rateBurst),
	}
	h.route("/healthz", http.MethodGet, false, h.handleHealthz)
	h.route("/stats", http.MethodGet, false, h.handleStats)
	h.route("/sources", "", true, h.handleSources)
	h.route("/topk", http.MethodGet, true, h.handleTopK)
	h.route("/estimate", http.MethodGet, true, h.handleEstimate)
	h.route("/query", http.MethodPost, true, h.handleQuery)
	h.route("/edges", http.MethodPost, true, h.handleEdges)
	h.route("/checkpoint", http.MethodPost, true, h.handleCheckpoint)
	h.mux.Handle("/metrics", promexp.Handler(h.gather))
	if opts.EnablePprof {
		h.mux.HandleFunc("/debug/pprof/", pprof.Index)
		h.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		h.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		h.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		h.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// apiError carries an HTTP status with a message through the handler
// helpers; retryAfter, when set, overrides the Retry-After suggestion on a
// 429.
type apiError struct {
	status     int
	msg        string
	retryAfter time.Duration
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// errorStatus maps an error to its response status.
func errorStatus(err error) int {
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		return ae.status
	case errors.Is(err, dynppr.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, dynppr.ErrUnknownSource):
		return http.StatusNotFound
	case errors.Is(err, dynppr.ErrVertexOutOfRange):
		return http.StatusBadRequest
	case errors.Is(err, dynppr.ErrSourceTracked):
		return http.StatusConflict
	case errors.Is(err, dynppr.ErrServiceClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, dynppr.ErrPersistenceDegraded),
		errors.Is(err, dynppr.ErrPersistenceFailed):
		// Storage trouble, not client error: 503 tells load balancers and
		// retrying clients the service (not the request) is the problem.
		// Degraded rejections additionally carry a Retry-After derived from
		// the next recovery probe (see retryAfter).
		return http.StatusServiceUnavailable
	case errors.Is(err, dynppr.ErrNoPersistence):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

// retryAfter suggests how long a shed client should back off. A rate
// limiter rejection carries the exact token-refill delay; a degraded-mode
// write rejection backs off until just past the next recovery probe; an
// overload rejection estimates the queue's drain time from its depth and
// the recent pipeline latency.
func (h *Handler) retryAfter(err error) time.Duration {
	var ae *apiError
	if errors.As(err, &ae) && ae.retryAfter > 0 {
		return ae.retryAfter
	}
	if errors.Is(err, dynppr.ErrPersistenceDegraded) {
		d := time.Second
		if ph, ok := h.svc.PersistenceHealth(); ok && ph.NextProbe > d {
			d = ph.NextProbe
		}
		if d > 60*time.Second {
			d = 60 * time.Second
		}
		return d
	}
	q := h.svc.Queue()
	lat := q.LastBatchLatency
	if lat <= 0 {
		lat = q.AvgBatchLatency
	}
	if lat <= 0 {
		lat = 50 * time.Millisecond
	}
	d := lat * time.Duration(q.QueueDepth+1)
	if d < time.Second {
		d = time.Second
	}
	if d > 60*time.Second {
		d = 60 * time.Second
	}
	return d
}

// retryAfterHeader formats a backoff duration as whole seconds, rounded up
// (Retry-After carries integral seconds; 0 would invite an instant retry).
func retryAfterHeader(d time.Duration) string {
	return strconv.Itoa(int(math.Ceil(d.Seconds())))
}

// route registers an endpoint that answers with JSON, wrapping it with
// method filtering, per-client rate limiting (for limited endpoints),
// timing and error accounting. An empty method admits any (the endpoint
// dispatches internally).
func (h *Handler) route(path, method string, limited bool, fn func(*http.Request) (any, error)) {
	h.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var (
			body   any
			err    error
			status = http.StatusOK
		)
		switch {
		case method != "" && r.Method != method:
			status = http.StatusMethodNotAllowed
			err = fmt.Errorf("method %s not allowed on %s", r.Method, path)
			w.Header().Set("Allow", method)
		case limited && h.limiter != nil && !h.admitClient(r, start, &err):
			status = errorStatus(err)
		default:
			r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
			body, err = fn(r)
			if err != nil {
				status = errorStatus(err)
				if errors.Is(err, dynppr.ErrOverloaded) {
					h.metrics.shed.Add(1)
				}
			}
		}
		if err != nil {
			if status == http.StatusTooManyRequests || errors.Is(err, dynppr.ErrPersistenceDegraded) {
				w.Header().Set("Retry-After", retryAfterHeader(h.retryAfter(err)))
			}
			body = ErrorResponse{Error: err.Error()}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		// The status line is already committed; an encode failure here can
		// only mean the connection is gone.
		_ = json.NewEncoder(w).Encode(body)
		h.metrics.Observe(path, time.Since(start), status >= 400)
	})
}

// admitClient spends one rate-limit token for the request's client. On
// rejection it stores the 429 into *errp and reports false.
func (h *Handler) admitClient(r *http.Request, now time.Time, errp *error) bool {
	ok, wait := h.limiter.allow(clientKey(r), now)
	if ok {
		return true
	}
	h.metrics.rateLimited.Add(1)
	*errp = &apiError{
		status:     http.StatusTooManyRequests,
		msg:        "rate limit exceeded for this client",
		retryAfter: wait,
	}
	return false
}

// admissionCtx bounds how long a write may wait for pipeline admission.
// The deadline is enforced before the mutation enters the pipeline (and
// thus before it is journaled), never after: a request that times out here
// is guaranteed to have had no effect, so clients can retry a 429 freely.
func (h *Handler) admissionCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), h.opts.AdmissionTimeout)
}

func decodeBody(r *http.Request, into any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return badRequest("bad request body: %v", err)
	}
	return nil
}

func parseVertex(r *http.Request, key string) (dynppr.VertexID, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return 0, badRequest("missing query parameter %q", key)
	}
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil || v < 0 {
		return 0, badRequest("bad vertex id %q for %q", raw, key)
	}
	return dynppr.VertexID(v), nil
}

// parseK reads the k query parameter: absent selects defaultTopK;
// non-numeric is a 400 here and out-of-range values are rejected by topK so
// the same bounds govern /topk and batched /query reads.
func parseK(r *http.Request) (int, error) {
	raw := r.URL.Query().Get("k")
	if raw == "" {
		return defaultTopK, nil
	}
	k, err := strconv.Atoi(raw)
	if err != nil {
		return 0, badRequest("bad k %q: not an integer", raw)
	}
	return k, nil
}

// handleHealthz is the load-balancer drain signal: 503 once the service is
// closed or persistence has failed permanently. A *degraded* service stays
// 200 — reads are still served correctly and the state heals itself — but
// the response surfaces the persistence state so operators and probes can
// see the episode.
func (h *Handler) handleHealthz(*http.Request) (any, error) {
	if h.svc.Closed() {
		return nil, &apiError{status: http.StatusServiceUnavailable, msg: "service is closed"}
	}
	resp := HealthResponse{Status: "ok"}
	if ph, ok := h.svc.PersistenceHealth(); ok {
		resp.Persistence = ph.State.String()
		if ph.State == dynppr.PersistFailed {
			return nil, &apiError{
				status: http.StatusServiceUnavailable,
				msg:    "persistence failed permanently: " + ph.Err,
			}
		}
	}
	return resp, nil
}

func (h *Handler) handleStats(*http.Request) (any, error) {
	st := h.svc.Stats()
	ov := OverloadStats{Shed: h.metrics.shed.Load(), RateLimited: h.metrics.rateLimited.Load()}
	if od := st.OnDemand; od != nil {
		ov.Coalesced = od.Coalesced
	}
	return StatsResponse{Service: st, HTTP: h.metrics.Snapshot(), Overload: ov}, nil
}

func (h *Handler) handleSources(r *http.Request) (any, error) {
	switch r.Method {
	case http.MethodGet:
		return SourcesResponse{Sources: h.svc.Sources()}, nil
	case http.MethodPost:
		var req SourcesRequest
		if err := decodeBody(r, &req); err != nil {
			return nil, err
		}
		if len(req.Add) == 0 && len(req.Remove) == 0 {
			return nil, badRequest("empty sources request: nothing to add or remove")
		}
		for _, s := range req.Add {
			if s < 0 {
				return nil, badRequest("negative source id %d", s)
			}
		}
		// One mutation, admitted once and validated whole before anything is
		// journaled: a 4xx — 429 included — leaves the tracked set as it was.
		ctx, cancel := h.admissionCtx(r)
		defer cancel()
		if err := h.svc.UpdateSources(ctx, req.Add, req.Remove); err != nil {
			return nil, err
		}
		return SourcesResponse{Sources: h.svc.Sources()}, nil
	default:
		return nil, &apiError{
			status: http.StatusMethodNotAllowed,
			msg:    fmt.Sprintf("method %s not allowed on /sources", r.Method),
		}
	}
}

// topK serves one ranking read through the service's unified query path: a
// tracked source reads its converged snapshot, an untracked one falls back
// to the on-demand approximate path when the service has it enabled (the
// response then carries approx: true and the achieved error bound) and to a
// 404 otherwise. ctx bounds only the pipeline admission an on-demand answer
// may need (snapshot refresh, promotion); tracked reads never block on it.
func (h *Handler) topK(ctx context.Context, source dynppr.VertexID, k int) (*TopKResult, error) {
	if k <= 0 {
		return nil, badRequest("k must be positive, got %d", k)
	}
	if k > maxTopK {
		return nil, badRequest("k %d exceeds the maximum %d", k, maxTopK)
	}
	top, qi, err := h.svc.QueryTopKCtx(ctx, source, k)
	if err != nil {
		return nil, err
	}
	res := &TopKResult{Snapshot: snapshotMeta(qi.Snapshot), K: k, Results: make([]VertexScore, len(top))}
	for i, vs := range top {
		res.Results[i] = VertexScore{Vertex: vs.Vertex, Score: vs.Score}
	}
	if qi.Approx {
		res.Approx = true
		res.Epsilon = qi.Snapshot.Epsilon
		res.Cached = qi.Cached
		res.Truncated = qi.Truncated
	}
	return res, nil
}

// estimate follows the same unified path as topK.
func (h *Handler) estimate(ctx context.Context, source, v dynppr.VertexID) (*EstimateResult, error) {
	est, qi, err := h.svc.QueryEstimateCtx(ctx, source, v)
	if err != nil {
		return nil, err
	}
	res := &EstimateResult{Snapshot: snapshotMeta(qi.Snapshot), Vertex: v, Score: est}
	if qi.Approx {
		res.Approx = true
		res.Epsilon = qi.Snapshot.Epsilon
		res.Cached = qi.Cached
		res.Truncated = qi.Truncated
	}
	return res, nil
}

func (h *Handler) handleTopK(r *http.Request) (any, error) {
	source, err := parseVertex(r, "source")
	if err != nil {
		return nil, err
	}
	k, err := parseK(r)
	if err != nil {
		return nil, err
	}
	ctx, cancel := h.admissionCtx(r)
	defer cancel()
	return h.topK(ctx, source, k)
}

func (h *Handler) handleEstimate(r *http.Request) (any, error) {
	source, err := parseVertex(r, "source")
	if err != nil {
		return nil, err
	}
	v, err := parseVertex(r, "v")
	if err != nil {
		return nil, err
	}
	ctx, cancel := h.admissionCtx(r)
	defer cancel()
	return h.estimate(ctx, source, v)
}

// handleQuery answers a batch of reads in one round trip. The batch is not a
// transaction: each query reads its source's current snapshot independently,
// and per-query failures (e.g. an untracked source) are reported inline so
// one bad query cannot fail the batch.
func (h *Handler) handleQuery(r *http.Request) (any, error) {
	var req QueryRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	if len(req.Queries) == 0 {
		return nil, badRequest("empty query batch")
	}
	ctx, cancel := h.admissionCtx(r)
	defer cancel()
	resp := QueryResponse{Results: make([]QueryResult, len(req.Queries))}
	for i, q := range req.Queries {
		res := &resp.Results[i]
		var err error
		// Vertex ids obey the rule parseVertex applies on the GET endpoints.
		switch {
		case q.Source < 0:
			err = badRequest("bad vertex id %d for %q", q.Source, "source")
		case q.Kind == KindTopK:
			k := q.K
			if k == 0 {
				k = defaultTopK
			}
			res.TopK, err = h.topK(ctx, q.Source, k)
		case q.Kind == KindEstimate && q.Vertex < 0:
			err = badRequest("bad vertex id %d for %q", q.Vertex, "vertex")
		case q.Kind == KindEstimate:
			res.Estimate, err = h.estimate(ctx, q.Source, q.Vertex)
		default:
			err = badRequest("unknown query kind %q (want %q or %q)", q.Kind, KindTopK, KindEstimate)
		}
		if err != nil {
			res.Error = err.Error()
			res.Status = errorStatus(err)
		}
	}
	return resp, nil
}

// handleCheckpoint serializes the service's durable state on demand. It is
// the admin hook operators (or a cron job) hit to bound WAL replay length;
// the periodic -checkpoint-every ticker of dppr-httpd calls the same
// Service method. A service without a data directory answers 409.
func (h *Handler) handleCheckpoint(*http.Request) (any, error) {
	lsn, err := h.svc.Checkpoint()
	if err != nil {
		return nil, err
	}
	return CheckpointResponse{LSN: lsn}, nil
}

// handleEdges applies one edge-update batch. The admission deadline bounds
// only the wait for a pipeline slot: a 429 means the batch was never
// admitted (and never journaled), while an admitted batch always runs to
// completion and is acknowledged with its result. Together with the graph's
// set semantics — duplicate inserts and missing deletes are skipped — this
// makes retrying any non-2xx response safe: a batch can never be applied
// one-and-a-half times.
func (h *Handler) handleEdges(r *http.Request) (any, error) {
	var req EdgesRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	if len(req.Updates) == 0 {
		return nil, badRequest("empty edge batch")
	}
	batch := make(dynppr.Batch, len(req.Updates))
	for i, u := range req.Updates {
		up, err := u.ToUpdate()
		if err != nil {
			return nil, badRequest("update %d: %v", i, err)
		}
		batch[i] = up
	}
	ctx, cancel := h.admissionCtx(r)
	defer cancel()
	res, err := h.svc.ApplyBatchCtx(ctx, batch)
	if err != nil {
		return nil, err
	}
	return EdgesResponse{
		Applied:       res.Applied,
		Skipped:       res.Skipped,
		LatencyMicros: res.Latency.Microseconds(),
		Pushes:        res.Pushes,
	}, nil
}
