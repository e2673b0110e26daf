package httpapi

import (
	"sync"
	"sync/atomic"
	"time"

	"dynppr/internal/metrics"
)

// ringSize bounds the latency samples kept per endpoint for the /stats JSON
// percentiles: they are computed over the most recent ringSize requests, so
// the metrics stay O(1) in memory under sustained load.
const ringSize = 8192

// endpointMetrics collects one endpoint's counters. Requests and errors are
// monotone atomics; latencies feed both a bounded recent-window ring
// (metrics.LatencyStats, exact percentiles over the window for /stats) and
// a set of P² streaming estimators (lifetime quantiles in O(1) memory, the
// summary quantiles /metrics exports).
type endpointMetrics struct {
	requests atomic.Int64
	errors   atomic.Int64

	mu  sync.Mutex
	lat *metrics.LatencyStats
	q50 *metrics.P2Quantile
	q95 *metrics.P2Quantile
	q99 *metrics.P2Quantile
}

func newEndpointMetrics() *endpointMetrics {
	return &endpointMetrics{
		lat: metrics.NewLatencyStats(ringSize),
		q50: metrics.NewP2Quantile(0.50),
		q95: metrics.NewP2Quantile(0.95),
		q99: metrics.NewP2Quantile(0.99),
	}
}

func (e *endpointMetrics) observe(d time.Duration, isErr bool) {
	e.requests.Add(1)
	if isErr {
		e.errors.Add(1)
	}
	secs := d.Seconds()
	e.mu.Lock()
	e.lat.Observe(d)
	e.q50.Observe(secs)
	e.q95.Observe(secs)
	e.q99.Observe(secs)
	e.mu.Unlock()
}

func (e *endpointMetrics) stats(elapsed time.Duration) EndpointStats {
	e.mu.Lock()
	pct := e.lat.Percentiles(50, 95, 99)
	out := EndpointStats{
		Requests:   e.requests.Load(),
		Errors:     e.errors.Load(),
		MeanMicros: e.lat.Mean().Microseconds(),
		P50Micros:  pct[0].Microseconds(),
		P95Micros:  pct[1].Microseconds(),
		P99Micros:  pct[2].Microseconds(),
		MaxMicros:  e.lat.Max().Microseconds(),
	}
	e.mu.Unlock()

	if elapsed > 0 {
		out.QPS = float64(out.Requests) / elapsed.Seconds()
	}
	return out
}

// summary returns the lifetime latency aggregates for the Prometheus
// exporter: streaming quantile estimates in seconds plus the exact running
// sum and count.
func (e *endpointMetrics) summary() (q50, q95, q99, sumSeconds float64, count int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.q50.Value(), e.q95.Value(), e.q99.Value(),
		e.lat.Sum().Seconds(), int64(e.lat.Count())
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
		m.endpoints[n] = newEndpointMetrics()
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

// Snapshot returns per-endpoint statistics. QPS is measured over the
// handler's lifetime; percentiles cover the most recent requests.
func (m *Metrics) Snapshot() map[string]EndpointStats {
	elapsed := time.Since(m.start)
	out := make(map[string]EndpointStats, len(m.endpoints))
	for name, e := range m.endpoints {
		out[name] = e.stats(elapsed)
	}
	return out
}
