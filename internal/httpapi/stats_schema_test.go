package httpapi_test

// The /stats body is the library's stats types rendered as JSON, and
// /metrics exports a fixed set of families. These tests pin both on a
// service with every optional block present — persistence and the
// on-demand tier — and read both while the pipeline is busy.

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dynppr"
	"dynppr/internal/httpapi"
	"dynppr/internal/promexp"
)

// newFullStatsAPI serves a persistent, on-demand-enabled service, so every
// optional /stats block and /metrics family is present.
func newFullStatsAPI(t *testing.T) (*dynppr.Service, []dynppr.VertexID, *httpapi.Client) {
	t.Helper()
	g := dynppr.GraphFromEdges(ringEdges(t, 120, 700, 7))
	sources := g.TopDegreeVertices(2)
	so := dynppr.DefaultServiceOptions()
	so.Options.Epsilon = 1e-5
	so.OnDemand = dynppr.OnDemandOptions{Enabled: true, Epsilon: 1e-4}
	svc, err := dynppr.NewPersistentService(g, sources, so, dynppr.PersistOptions{
		Dir: filepath.Join(t.TempDir(), "data"),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpapi.NewHandler(svc, httpapi.HandlerOptions{}))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, sources, httpapi.NewClient(ts.URL, ts.Client())
}

// exerciseStats drives every statistic block once: two write batches,
// cold and tracked reads, and a checkpoint.
func exerciseStats(t *testing.T, rng *rand.Rand, sources []dynppr.VertexID, client *httpapi.Client) {
	t.Helper()
	for i := 0; i < 2; i++ {
		if _, err := client.ApplyEdges(randomBatch(rng, 20, 120)); err != nil {
			t.Fatal(err)
		}
	}
	cold := untrackedVertex(sources)
	for i := 0; i < 2; i++ {
		if _, err := client.TopK(cold+dynppr.VertexID(i), 5); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.TopK(sources[0], 5); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// quiesce waits until no mutation is queued and no background compaction
// runs, so two Stats calls in a row agree.
func quiesce(t *testing.T, svc *dynppr.Service) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); svc.Stats().Storage.CompactionInFlight || svc.Queue().QueueDepth > 0; {
		if time.Now().After(deadline) {
			t.Fatal("service never went quiescent")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStatsRoundTrip pins that /stats is the library's ServiceStats with
// nothing dropped or converted: decoded by the client, it equals what
// Stats returns in-process.
func TestStatsRoundTrip(t *testing.T) {
	svc, sources, client := newFullStatsAPI(t)
	exerciseStats(t, rand.New(rand.NewSource(1)), sources, client)
	quiesce(t, svc)

	got, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	want := svc.Stats()
	if want.Persistence == nil || want.OnDemand == nil || want.Storage.Compactions == 0 ||
		want.OnDemand.ColdPushes == 0 || want.AvgBatchLatency <= 0 {
		t.Fatalf("exercise left a stats block empty: %+v", want)
	}
	if !reflect.DeepEqual(got.Service, want) {
		t.Fatalf("/stats service block differs from Stats():\n got %+v\nwant %+v", got.Service, want)
	}
}

// TestStatsSchemaTags walks the /stats body type: every exported field
// carries an explicit snake_case JSON key, no JSON object repeats a key
// (embedded structs flattened), and every duration is integer nanoseconds
// under a key that says so.
func TestStatsSchemaTags(t *testing.T) {
	snake := regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
	durationType := reflect.TypeOf(time.Duration(0))
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type)
	// object collects the keys of one JSON object, descending into the
	// anonymous structs encoding/json flattens into it.
	var object func(typ reflect.Type, keys map[string]string)
	object = func(typ reflect.Type, keys map[string]string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			tag, ok := f.Tag.Lookup("json")
			if f.Anonymous && !ok && f.Type.Kind() == reflect.Struct {
				object(f.Type, keys)
				continue
			}
			name := strings.Split(tag, ",")[0]
			where := typ.Name() + "." + f.Name
			if !snake.MatchString(name) {
				t.Errorf("%s: json key %q is not explicit snake_case", where, name)
			}
			if prev, dup := keys[name]; dup {
				t.Errorf("%s: json key %q already used by %s", where, name, prev)
			}
			keys[name] = where
			if f.Type == durationType && !strings.HasSuffix(name, "_ns") {
				t.Errorf("%s: duration key %q does not end in _ns", where, name)
			}
			walk(f.Type)
		}
	}
	walk = func(typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map:
			walk(typ.Elem())
		case reflect.Struct:
			if !seen[typ] {
				seen[typ] = true
				object(typ, map[string]string{})
			}
		}
	}
	walk(reflect.TypeOf(httpapi.StatsResponse{}))
	for _, v := range []any{dynppr.SourceStats{}, dynppr.StorageStats{}, dynppr.PersistenceStats{}, dynppr.OnDemandStats{}} {
		if !seen[reflect.TypeOf(v)] {
			t.Errorf("walk never reached %T", v)
		}
	}
}

// metricsShape lists /metrics as sorted "name type [label,names]" lines.
func metricsShape(t *testing.T, client *httpapi.Client) []string {
	t.Helper()
	text, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	fams, err := promexp.ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	var out []string
	for _, f := range fams {
		labels := map[string]bool{}
		for _, s := range f.Samples {
			for _, l := range s.Labels {
				labels[l.Name] = true
			}
		}
		for _, h := range f.Histograms {
			for _, l := range h.Labels {
				labels[l.Name] = true
			}
		}
		names := make([]string, 0, len(labels))
		for l := range labels {
			names = append(names, l)
		}
		sort.Strings(names)
		out = append(out, strings.TrimSpace(fmt.Sprintf("%s %s %s", f.Name, f.Type, strings.Join(names, ","))))
	}
	sort.Strings(out)
	return out
}

// TestMetricsFamiliesPinned pins the /metrics exposition: the family
// names, types and label names a persistent, on-demand-enabled server
// exports. The Prometheus names are chosen on their own, apart from the
// /stats keys, so a change to the stats types must leave this list alone.
func TestMetricsFamiliesPinned(t *testing.T) {
	svc, sources, client := newFullStatsAPI(t)
	exerciseStats(t, rand.New(rand.NewSource(1)), sources, client)
	quiesce(t, svc)
	want := []string{
		"dppr_auto_sources gauge",
		"dppr_batch_seconds_total counter",
		"dppr_batches_total counter",
		"dppr_checkpoint_last_lsn gauge",
		"dppr_checkpoints_total counter",
		"dppr_evictions_total counter",
		"dppr_graph_edges gauge",
		"dppr_graph_vertices gauge",
		"dppr_http_rate_limited_total counter",
		"dppr_http_request_duration_seconds histogram endpoint",
		"dppr_http_request_errors_total counter endpoint",
		"dppr_http_requests_total counter endpoint",
		"dppr_http_shed_total counter",
		"dppr_last_batch_seconds gauge",
		"dppr_ondemand_cache_answer_entries gauge",
		"dppr_ondemand_cache_bytes gauge",
		"dppr_ondemand_cache_entries gauge",
		"dppr_ondemand_cache_hits_total counter",
		"dppr_ondemand_cache_misses_total counter",
		"dppr_ondemand_candidates gauge",
		"dppr_ondemand_coalesced_total counter",
		"dppr_ondemand_cold_pushes_total counter",
		"dppr_ondemand_last_seconds gauge",
		"dppr_ondemand_pool_depth gauge",
		"dppr_ondemand_pool_workers gauge",
		"dppr_ondemand_queries_total counter",
		"dppr_ondemand_seconds_total counter",
		"dppr_ondemand_snapshot_builds_total counter",
		"dppr_persistence_degraded_seconds_total counter",
		"dppr_persistence_failed gauge",
		"dppr_persistence_probe_attempts_total counter",
		"dppr_persistence_probe_successes_total counter",
		"dppr_persistence_state gauge",
		"dppr_pipeline_shed_total counter",
		"dppr_pool_workers gauge",
		"dppr_promotions_total counter",
		"dppr_pushes_total counter",
		"dppr_queue_capacity gauge",
		"dppr_queue_depth gauge",
		"dppr_snapshot_delta_publishes_total counter",
		"dppr_snapshot_full_publishes_total counter",
		"dppr_sources gauge",
		"dppr_topk_rebuilds_total counter",
		"dppr_updates_applied_total counter",
		"dppr_updates_skipped_total counter",
		"dppr_wal_next_lsn counter",
	}
	got := metricsShape(t, client)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("/metrics families changed:\n got %q\nwant %q", got, want)
	}
}

// TestStatsReadersUnderLoad polls GET /stats and GET /metrics from two
// goroutines while batches, cold queries, a source add/remove pair and
// checkpoints run. Every poll must decode, and the cumulative counters must
// never run backwards between polls of one reader.
func TestStatsReadersUnderLoad(t *testing.T) {
	svc, sources, client := newFullStatsAPI(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var statsPolls, metricsPolls int

	// poll runs read until stop closes, at least once.
	poll := func(n *int, read func() bool) {
		defer wg.Done()
		for {
			if !read() {
				return
			}
			*n++
			select {
			case <-stop:
				return
			default:
			}
		}
	}
	wg.Add(2)
	var last [4]float64
	go poll(&statsPolls, func() bool {
		st, err := client.Stats()
		if err != nil {
			t.Errorf("/stats poll: %v", err)
			return false
		}
		s := st.Service
		if s.OnDemand == nil || s.Persistence == nil {
			t.Errorf("/stats poll lost a block: %+v", s)
			return false
		}
		return monotone(t, "/stats", &last, [4]float64{float64(s.Batches), float64(s.UpdatesApplied),
			float64(s.OnDemand.ColdPushes), float64(s.Persistence.Checkpoints)})
	})
	var lastMetrics [4]float64
	go poll(&metricsPolls, func() bool {
		text, err := client.Metrics()
		if err != nil {
			t.Errorf("/metrics poll: %v", err)
			return false
		}
		fams, err := promexp.ParseText(strings.NewReader(text))
		if err != nil {
			t.Errorf("/metrics poll does not parse: %v", err)
			return false
		}
		v := map[string]float64{}
		for _, f := range fams {
			if len(f.Samples) == 1 {
				v[f.Name] = f.Samples[0].Value
			}
		}
		return monotone(t, "/metrics", &lastMetrics, [4]float64{v["dppr_batches_total"], v["dppr_updates_applied_total"],
			v["dppr_ondemand_cold_pushes_total"], v["dppr_checkpoints_total"]})
	})

	rng := rand.New(rand.NewSource(2))
	extra := untrackedVertex(sources) + 50
	for round := 0; round < 4; round++ {
		exerciseStats(t, rng, sources, client)
		if _, err := client.UpdateSources([]dynppr.VertexID{extra}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := client.UpdateSources(nil, []dynppr.VertexID{extra}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if st := svc.Stats(); st.Batches != 8 || st.Persistence.Checkpoints < 5 {
		t.Fatalf("load did not run as scripted: %d batches, %d checkpoints", st.Batches, st.Persistence.Checkpoints)
	}
	if statsPolls == 0 || metricsPolls == 0 {
		t.Fatalf("polls: %d /stats, %d /metrics", statsPolls, metricsPolls)
	}
	t.Logf("polls: %d /stats, %d /metrics", statsPolls, metricsPolls)
}

// polledCounters names, in order, the counters the load test's readers
// pass to monotone.
var polledCounters = [4]string{"batches", "updates_applied", "ondemand.cold_pushes", "persistence.checkpoints"}

// monotone checks that none of the counters fell below its value at the
// previous poll, and records them.
func monotone(t *testing.T, what string, last *[4]float64, counters [4]float64) bool {
	for i, c := range counters {
		if c < last[i] {
			t.Errorf("%s %s ran backwards: %v after %v", what, polledCounters[i], c, last[i])
			return false
		}
	}
	*last = counters
	return true
}
