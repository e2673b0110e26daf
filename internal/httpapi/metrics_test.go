package httpapi_test

import (
	"math"
	"strings"
	"testing"

	"dynppr"
	"dynppr/internal/promexp"
)

// TestHTTPStatsMatchesMetrics pins one definition of an endpoint's latency:
// /stats and /metrics read the same histogram, so the request counts agree
// three ways and the /stats percentiles are histogram_quantile over the
// exported buckets.
func TestHTTPStatsMatchesMetrics(t *testing.T) {
	_, sources, client := newTestAPI(t, 2)
	want := map[string]int64{"/topk": 40, "/estimate": 25}
	for i := int64(0); i < want["/topk"]; i++ {
		if _, err := client.TopK(sources[i%2], 3); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < want["/estimate"]; i++ {
		if _, err := client.Estimate(sources[0], dynppr.VertexID(i)); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	text, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	fams, err := promexp.ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, text)
	}
	requests := map[string]float64{}
	hists := map[string]promexp.HistogramSample{}
	for _, f := range fams {
		switch f.Name {
		case "dppr_http_requests_total":
			for _, s := range f.Samples {
				requests[s.Labels[0].Value] = s.Value
			}
		case "dppr_http_request_duration_seconds":
			if f.Type != promexp.Histogram {
				t.Fatalf("latency family has type %q, want histogram", f.Type)
			}
			for _, h := range f.Histograms {
				hists[h.Labels[0].Value] = h
			}
		}
	}
	for ep, n := range want {
		st, h := stats.HTTP[ep], hists[ep]
		if st.Requests != n || int64(h.Count) != n || requests[ep] != float64(n) {
			t.Fatalf("%s: /stats requests %d, _count %d, requests_total %v, want %d",
				ep, st.Requests, h.Count, requests[ep], n)
		}
		if len(h.Buckets) > 49 {
			t.Fatalf("%s: %d bucket series, want at most 49", ep, len(h.Buckets))
		}
		for q, got := range map[float64]int64{0.50: st.P50Micros, 0.95: st.P95Micros, 0.99: st.P99Micros} {
			if want := quantileMicros(t, q, h.Buckets, st.MaxMicros); got != want {
				t.Errorf("%s: /stats p%g = %d µs, buckets give %d µs\n%s", ep, 100*q, got, want, text)
			}
		}
	}
}

// quantileMicros recomputes a quantile from parsed cumulative buckets the
// way histogram_quantile does — linear inside the bucket holding rank
// q·count — capped by the endpoint's max, in whole microseconds.
func quantileMicros(t *testing.T, q float64, buckets []promexp.Bucket, maxMicros int64) int64 {
	t.Helper()
	rank := q * float64(buckets[len(buckets)-1].Count)
	lo, prev := 0.0, uint64(0)
	for _, b := range buckets {
		hi := math.Round(b.UpperBound * 1e9)
		if c := b.Count - prev; c > 0 && float64(b.Count) >= rank {
			if math.IsInf(hi, 1) {
				t.Fatal("a test request landed in the +Inf bucket")
			}
			ns := math.Ceil(lo + (hi-lo)*(rank-float64(prev))/float64(c))
			return min(int64(ns)/1000, maxMicros)
		}
		lo, prev = hi, b.Count
	}
	t.Fatal("rank beyond the +Inf bucket")
	return 0
}
