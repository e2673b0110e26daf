package httpapi

import (
	"sync/atomic"
	"time"

	"dynppr/internal/metrics"
)

// endpointMetrics collects one endpoint's counters: an error count and
// the latency histogram, whose count is the request count. /stats and
// /metrics both read the same buckets.
type endpointMetrics struct {
	errors atomic.Int64
	lat    metrics.Histogram
}

func (e *endpointMetrics) observe(d time.Duration, isErr bool) {
	if isErr {
		e.errors.Add(1)
	}
	e.lat.Observe(d)
}

func (e *endpointMetrics) stats(elapsed time.Duration) EndpointStats {
	out := EndpointStats{
		Requests:   e.lat.Count(),
		Errors:     e.errors.Load(),
		MeanMicros: e.lat.Mean().Microseconds(),
		P50Micros:  e.lat.Quantile(0.50).Microseconds(),
		P95Micros:  e.lat.Quantile(0.95).Microseconds(),
		P99Micros:  e.lat.Quantile(0.99).Microseconds(),
		MaxMicros:  e.lat.Max().Microseconds(),
	}
	if elapsed > 0 {
		out.QPS = float64(out.Requests) / elapsed.Seconds()
	}
	return out
}

// Metrics aggregates per-endpoint serving counters for one Handler, plus
// the handler-wide traffic-management counters. Observe is safe for
// concurrent use; endpoints are registered up front so the hot path never
// takes a map-wide lock.
type Metrics struct {
	start     time.Time
	endpoints map[string]*endpointMetrics

	// shed counts 429s from write-pipeline overload, rateLimited 429s from
	// the per-client token bucket.
	shed        atomic.Int64
	rateLimited atomic.Int64
}

// newMetrics registers the given endpoint names.
func newMetrics(names ...string) *Metrics {
	m := &Metrics{start: time.Now(), endpoints: make(map[string]*endpointMetrics, len(names))}
	for _, n := range names {
		m.endpoints[n] = new(endpointMetrics)
	}
	return m
}

// Observe records one request against the named endpoint. Unknown names are
// dropped (they cannot occur for requests routed by the Handler).
func (m *Metrics) Observe(endpoint string, d time.Duration, isErr bool) {
	if e, ok := m.endpoints[endpoint]; ok {
		e.observe(d, isErr)
	}
}

// Snapshot returns per-endpoint statistics, all over the handler's
// lifetime; percentiles are histogram bucket estimates.
func (m *Metrics) Snapshot() map[string]EndpointStats {
	elapsed := time.Since(m.start)
	out := make(map[string]EndpointStats, len(m.endpoints))
	for name, e := range m.endpoints {
		out[name] = e.stats(elapsed)
	}
	return out
}
