package httpapi

import (
	"math"
	"sort"

	"dynppr"
	"dynppr/internal/metrics"
	"dynppr/internal/promexp"
)

// gather assembles the Prometheus metric families for GET /metrics: the
// HTTP layer's per-endpoint counters and latency histograms, the handler's
// traffic-management counters, and the Service's pipeline, graph and
// durability statistics. Families and series are emitted in sorted order so
// the output is byte-stable for a fixed metric state (scrape-diff friendly,
// and deterministic for the format round-trip test).
func (h *Handler) gather() []promexp.Family {
	st := h.svc.Stats()

	names := make([]string, 0, len(h.metrics.endpoints))
	for name := range h.metrics.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)

	requests := promexp.Family{
		Name: "dppr_http_requests_total",
		Help: "HTTP requests served, by endpoint.",
		Type: promexp.Counter,
	}
	errors := promexp.Family{
		Name: "dppr_http_request_errors_total",
		Help: "HTTP requests answered with status >= 400, by endpoint.",
		Type: promexp.Counter,
	}
	duration := promexp.Family{
		Name: "dppr_http_request_duration_seconds",
		Help: "HTTP request latency over the handler's lifetime, by endpoint.",
		Type: promexp.Histogram,
	}
	for _, name := range names {
		e := h.metrics.endpoints[name]
		labels := []promexp.Label{{Name: "endpoint", Value: name}}
		lat := latencyHistogram(labels, &e.lat)
		duration.Histograms = append(duration.Histograms, lat)
		requests.Samples = append(requests.Samples,
			promexp.Sample{Labels: labels, Value: float64(lat.Count)})
		errors.Samples = append(errors.Samples,
			promexp.Sample{Labels: labels, Value: float64(e.errors.Load())})
	}

	fams := []promexp.Family{
		requests, errors, duration,
		counter("dppr_http_shed_total",
			"Requests answered 429 because the write pipeline was saturated.", float64(h.metrics.shed.Load())),
		counter("dppr_http_rate_limited_total",
			"Requests answered 429 by the per-client rate limiter.", float64(h.metrics.rateLimited.Load())),
		gauge("dppr_queue_depth",
			"Mutations waiting in the write pipeline.", float64(st.QueueDepth)),
		gauge("dppr_queue_capacity",
			"Bounded capacity of the write pipeline's admission queue.", float64(st.QueueCap)),
		counter("dppr_pipeline_shed_total",
			"Mutations rejected with ErrOverloaded at pipeline admission.", float64(st.Shed)),
		counter("dppr_batches_total",
			"Edge-update batches applied by the write pipeline.", float64(st.Batches)),
		counter("dppr_updates_applied_total",
			"Effective edge updates applied.", float64(st.UpdatesApplied)),
		counter("dppr_updates_skipped_total",
			"No-op edge updates skipped (duplicate inserts, missing deletes).", float64(st.UpdatesSkipped)),
		counter("dppr_batch_seconds_total",
			"Total restore+push+publish pipeline time across batches.", st.TotalBatchLatency.Seconds()),
		gauge("dppr_last_batch_seconds",
			"Pipeline latency of the most recent batch.", st.LastBatchLatency.Seconds()),
		gauge("dppr_graph_vertices", "Vertices in the served graph.", float64(st.Vertices)),
		gauge("dppr_graph_edges", "Edges in the served graph.", float64(st.Edges)),
		gauge("dppr_sources", "Tracked PPR sources.", float64(len(st.Sources))),
		gauge("dppr_pool_workers", "Bound on sources pushed at once.", float64(st.PoolWorkers)),
	}

	var fullPubs, deltaPubs, rebuilds, pushes float64
	for _, ss := range st.Sources {
		fullPubs += float64(ss.FullPublishes)
		deltaPubs += float64(ss.DeltaPublishes)
		rebuilds += float64(ss.TopKRebuilds)
		pushes += float64(ss.Pushes)
	}
	fams = append(fams,
		counter("dppr_pushes_total",
			"Push operations performed across all tracked sources.", pushes),
		counter("dppr_snapshot_full_publishes_total",
			"Snapshot publications performed as full vector copies.", fullPubs),
		counter("dppr_snapshot_delta_publishes_total",
			"Snapshot publications performed as dirty-set deltas.", deltaPubs),
		counter("dppr_topk_rebuilds_total",
			"Full-scan rebuilds of per-source Top-K indexes.", rebuilds),
	)

	if od := st.OnDemand; od != nil {
		fams = append(fams,
			counter("dppr_ondemand_queries_total",
				"Answers served by the on-demand (approximate) query path.", float64(od.Queries)),
			counter("dppr_ondemand_cold_pushes_total",
				"Cold local pushes executed by the on-demand tier.", float64(od.ColdPushes)),
			counter("dppr_ondemand_cache_hits_total",
				"On-demand queries answered from the result cache.", float64(od.CacheHits)),
			counter("dppr_ondemand_cache_misses_total",
				"On-demand queries that missed the result cache.", float64(od.CacheMisses)),
			counter("dppr_ondemand_coalesced_total",
				"On-demand queries answered by an identical in-flight cold push.", float64(od.Coalesced)),
			gauge("dppr_ondemand_cache_entries",
				"Entries resident in the on-demand result cache.", float64(od.CacheEntries)),
			gauge("dppr_ondemand_cache_answer_entries",
				"Summed length of the cached answers' sparse estimate vectors.", float64(od.CacheAnswerEntries)),
			gauge("dppr_ondemand_cache_bytes",
				"Bytes held by the cached answers' sparse estimate vectors.", float64(od.CacheBytes)),
			gauge("dppr_ondemand_pool_workers",
				"Tokens bounding concurrent cold pushes (GOMAXPROCS).", float64(od.PoolWorkers)),
			gauge("dppr_ondemand_pool_depth",
				"Cold-push tokens held right now.", float64(od.PoolDepth)),
			counter("dppr_ondemand_snapshot_builds_total",
				"Layered graph views pinned for on-demand queries (one per queried graph version).", float64(od.SnapshotBuilds)),
			counter("dppr_ondemand_seconds_total",
				"Total time spent computing on-demand answers.", od.TotalLatency.Seconds()),
			gauge("dppr_ondemand_last_seconds",
				"Latency of the most recent on-demand answer.", od.LastLatency.Seconds()),
			gauge("dppr_ondemand_candidates",
				"Sources currently counted in the promotion admission cache.", float64(od.Candidates)),
			counter("dppr_promotions_total",
				"On-demand sources promoted into tracked state.", float64(od.Promotions)),
			counter("dppr_evictions_total",
				"Auto-promoted sources evicted to make room for hotter ones.", float64(od.Evictions)),
			gauge("dppr_auto_sources",
				"Currently tracked auto-promoted sources.", float64(od.AutoSources)),
		)
	}

	if p := st.Persistence; p != nil {
		state, failed := 0.0, 0.0
		switch p.State {
		case dynppr.PersistDegraded:
			state = 1
		case dynppr.PersistFailed:
			state, failed = 2, 1
		}
		fams = append(fams,
			counter("dppr_wal_next_lsn",
				"Sequence number the next journaled mutation will receive.", float64(p.NextLSN)),
			gauge("dppr_checkpoint_last_lsn",
				"WAL sequence number covered by the most recent checkpoint.", float64(p.LastCheckpointLSN)),
			counter("dppr_checkpoints_total",
				"Completed checkpoints over the service's lifetime.", float64(p.Checkpoints)),
			gauge("dppr_persistence_state",
				"Durability state machine: 0 healthy, 1 degraded (writes shed, recovery probes running), 2 failed.", state),
			gauge("dppr_persistence_failed",
				"1 once persistence has failed permanently (mutations rejected until restart), else 0.", failed),
			counter("dppr_persistence_probe_attempts_total",
				"Recovery heal attempts (background probes and manual checkpoints while degraded).", float64(p.ProbeAttempts)),
			counter("dppr_persistence_probe_successes_total",
				"Recovery heals that returned persistence to healthy.", float64(p.ProbeSuccesses)),
			counter("dppr_persistence_degraded_seconds_total",
				"Cumulative time spent in the degraded state, the open window included.", p.DegradedSeconds),
		)
	}

	promexp.SortFamilies(fams)
	return fams
}

// latencyHistogram renders one endpoint's latency buckets in seconds. The
// bucket counts are read once, so the +Inf bucket, _count and the
// endpoint's request count agree within a scrape.
func latencyHistogram(labels []promexp.Label, h *metrics.Histogram) promexp.HistogramSample {
	s := promexp.HistogramSample{
		Labels:  labels,
		Buckets: make([]promexp.Bucket, 0, metrics.NumBuckets),
		Sum:     h.Sum().Seconds(),
	}
	for i, c := range h.Counts() {
		s.Count += uint64(c)
		le := math.Inf(1)
		if i < metrics.NumBuckets-1 {
			le = metrics.UpperBound(i).Seconds()
		}
		s.Buckets = append(s.Buckets, promexp.Bucket{UpperBound: le, Count: s.Count})
	}
	return s
}

func counter(name, help string, v float64) promexp.Family {
	return promexp.Family{
		Name: name, Help: help, Type: promexp.Counter,
		Samples: []promexp.Sample{{Value: v}},
	}
}

func gauge(name, help string, v float64) promexp.Family {
	return promexp.Family{
		Name: name, Help: help, Type: promexp.Gauge,
		Samples: []promexp.Sample{{Value: v}},
	}
}
