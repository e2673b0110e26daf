// Package httpapi is the network front end of the serving layer: JSON wire
// types, an http.Handler over a dynppr.Service, a production-shaped server
// (timeouts, graceful shutdown, per-endpoint latency/QPS counters) and a Go
// client. The endpoints expose exactly the Service read/write surface —
// single and batched top-k/estimate queries, edge-update batches, live
// source add/remove, and serving statistics — and every read response
// carries the metadata of the converged snapshot it was served from, so
// remote callers can verify the same consistency contract in-process callers
// get from SnapshotInfo.
package httpapi

import (
	"fmt"

	"dynppr"
)

// Update operation names on the wire.
const (
	OpInsert = "insert"
	OpDelete = "delete"
)

// Query kinds accepted by POST /query.
const (
	KindTopK     = "topk"
	KindEstimate = "estimate"
)

// SnapshotMeta is the wire form of dynppr.SnapshotInfo: which converged
// snapshot a read was served from.
type SnapshotMeta struct {
	Source      dynppr.VertexID `json:"source"`
	Epoch       uint64          `json:"epoch"`
	MaxResidual float64         `json:"max_residual"`
	Epsilon     float64         `json:"epsilon"`
	Vertices    int             `json:"vertices"`
	Converged   bool            `json:"converged"`
}

func snapshotMeta(info dynppr.SnapshotInfo) SnapshotMeta {
	return SnapshotMeta{
		Source:      info.Source,
		Epoch:       info.Epoch,
		MaxResidual: info.MaxResidual,
		Epsilon:     info.Epsilon,
		Vertices:    info.Vertices,
		Converged:   info.Converged(),
	}
}

// VertexScore is one ranked vertex in a top-k response.
type VertexScore struct {
	Vertex dynppr.VertexID `json:"vertex"`
	Score  float64         `json:"score"`
}

// TopKResult answers a top-k query: the ranking and the snapshot it came
// from. Approx marks an answer computed by the on-demand path for an
// untracked source; Epsilon is then the achieved absolute error bound of
// every score (tracked answers carry their bound in Snapshot.Epsilon
// instead, and Snapshot.Epoch 0 marks a synthesized on-demand snapshot).
// Cached marks an on-demand answer served from the result cache (always
// bit-identical to the answer a fresh computation would produce for the
// same graph Version); Truncated marks an answer whose push stopped at
// the fixed per-push work cap before reaching the configured ε — the answer
// is still sound within the reported Epsilon.
type TopKResult struct {
	Snapshot  SnapshotMeta  `json:"snapshot"`
	K         int           `json:"k"`
	Results   []VertexScore `json:"results"`
	Approx    bool          `json:"approx,omitempty"`
	Epsilon   float64       `json:"epsilon,omitempty"`
	Cached    bool          `json:"cached,omitempty"`
	Truncated bool          `json:"truncated,omitempty"`
}

// EstimateResult answers an estimate query. Approx/Epsilon/Cached/Truncated
// follow the TopKResult contract.
type EstimateResult struct {
	Snapshot  SnapshotMeta    `json:"snapshot"`
	Vertex    dynppr.VertexID `json:"vertex"`
	Score     float64         `json:"score"`
	Approx    bool            `json:"approx,omitempty"`
	Epsilon   float64         `json:"epsilon,omitempty"`
	Cached    bool            `json:"cached,omitempty"`
	Truncated bool            `json:"truncated,omitempty"`
}

// Query is one element of a batched read request.
type Query struct {
	// Kind is "topk" or "estimate".
	Kind   string          `json:"kind"`
	Source dynppr.VertexID `json:"source"`
	// Vertex is the query vertex for estimate queries.
	Vertex dynppr.VertexID `json:"vertex,omitempty"`
	// K is the ranking length for topk queries.
	K int `json:"k,omitempty"`
}

// QueryRequest is the body of POST /query.
type QueryRequest struct {
	Queries []Query `json:"queries"`
}

// QueryResult is the outcome of one query of a batch: exactly one of TopK,
// Estimate or Error is set. Status carries the HTTP status the same query
// would have received on its dedicated endpoint (404 for an untracked
// source, 400 for a malformed query, ...); it is set only alongside Error —
// successful queries leave it 0.
type QueryResult struct {
	TopK     *TopKResult     `json:"topk,omitempty"`
	Estimate *EstimateResult `json:"estimate,omitempty"`
	Error    string          `json:"error,omitempty"`
	Status   int             `json:"status,omitempty"`
}

// QueryResponse is the body answering POST /query, results in request order.
type QueryResponse struct {
	Results []QueryResult `json:"results"`
}

// Update is one edge update of a POST /edges batch.
type Update struct {
	U dynppr.VertexID `json:"u"`
	V dynppr.VertexID `json:"v"`
	// Op is "insert" or "delete".
	Op string `json:"op"`
}

// ToUpdate converts the wire update to the library type.
func (u Update) ToUpdate() (dynppr.Update, error) {
	if u.U < 0 || u.V < 0 {
		return dynppr.Update{}, fmt.Errorf("httpapi: negative vertex id in edge (%d, %d)", u.U, u.V)
	}
	switch u.Op {
	case OpInsert:
		return dynppr.Update{U: u.U, V: u.V, Op: dynppr.Insert}, nil
	case OpDelete:
		return dynppr.Update{U: u.U, V: u.V, Op: dynppr.Delete}, nil
	default:
		return dynppr.Update{}, fmt.Errorf("httpapi: unknown op %q (want %q or %q)", u.Op, OpInsert, OpDelete)
	}
}

// FromBatch converts a library batch to its wire form.
func FromBatch(b dynppr.Batch) []Update {
	out := make([]Update, len(b))
	for i, u := range b {
		op := OpInsert
		if u.Op == dynppr.Delete {
			op = OpDelete
		}
		out[i] = Update{U: u.U, V: u.V, Op: op}
	}
	return out
}

// EdgesRequest is the body of POST /edges.
//
// Retry contract: POST /edges is idempotent in effect. A 429 (or any
// admission failure) means the batch never entered the write pipeline and
// was never journaled, so retrying cannot double-apply; and because the
// graph has set semantics — a duplicate insert or a delete of a missing
// edge is skipped, not an error — re-sending a batch whose first attempt
// did succeed (e.g. after a lost response) converges to the same graph,
// merely reporting the repeats in EdgesResponse.Skipped.
type EdgesRequest struct {
	Updates []Update `json:"updates"`
}

// EdgesResponse reports what the batch did, mirroring dynppr.BatchResult.
type EdgesResponse struct {
	Applied       int   `json:"applied"`
	Skipped       int   `json:"skipped"`
	LatencyMicros int64 `json:"latency_micros"`
	Pushes        int64 `json:"pushes"`
}

// SourcesRequest is the body of POST /sources: sources to start and stop
// tracking. Adds are applied before removes.
type SourcesRequest struct {
	Add    []dynppr.VertexID `json:"add,omitempty"`
	Remove []dynppr.VertexID `json:"remove,omitempty"`
}

// SourcesResponse lists the tracked sources after the request took effect.
type SourcesResponse struct {
	Sources []dynppr.VertexID `json:"sources"`
}

// HealthResponse is the body of a 200 GET /healthz. Once the service has
// shut down — or persistence has failed permanently — /healthz instead
// answers 503 with the usual ErrorResponse envelope, so load balancers
// drain the instance.
type HealthResponse struct {
	// Status is "ok".
	Status string `json:"status"`
	// Persistence is the durability state machine's state ("healthy",
	// "degraded" or "failed"); empty on a service without a data
	// directory. A degraded service still answers 200: reads are correct
	// and the state self-heals.
	Persistence string `json:"persistence,omitempty"`
}

// CheckpointResponse answers POST /checkpoint: the WAL sequence number the
// new checkpoint covers.
type CheckpointResponse struct {
	LSN uint64 `json:"lsn"`
}

// EndpointStats reports one endpoint's serving counters over the handler's
// lifetime. The percentiles are estimates from the latency histogram
// /metrics exports (each inside the bucket of the true value); the other
// fields are exact.
type EndpointStats struct {
	Requests   int64   `json:"requests"`
	Errors     int64   `json:"errors"`
	QPS        float64 `json:"qps"`
	MeanMicros int64   `json:"mean_micros"`
	P50Micros  int64   `json:"p50_micros"`
	P95Micros  int64   `json:"p95_micros"`
	P99Micros  int64   `json:"p99_micros"`
	MaxMicros  int64   `json:"max_micros"`
}

// OverloadStats reports the HTTP layer's traffic-management counters: how
// many requests were answered 429 because the write pipeline was saturated
// (Shed) or because the per-client token bucket rejected them
// (RateLimited), and how many reads were answered from another identical
// in-flight request (Coalesced) — the on-demand tier's count, the one place
// identical reads are shared; 0 with on-demand off.
type OverloadStats struct {
	Shed        int64 `json:"shed"`
	RateLimited int64 `json:"rate_limited"`
	Coalesced   int64 `json:"coalesced"`
}

// StatsResponse is the body of GET /stats: the service's serving statistics
// plus the HTTP layer's per-endpoint and traffic-management counters.
type StatsResponse struct {
	Service  dynppr.ServiceStats      `json:"service"`
	HTTP     map[string]EndpointStats `json:"http"`
	Overload OverloadStats            `json:"overload"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
