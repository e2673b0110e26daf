package promexp

import (
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

func testFamilies() []Family {
	return []Family{
		{
			Name: "dppr_requests_total",
			Help: `Total requests, by endpoint. Embedded "quotes" and a \ backslash`,
			Type: Counter,
			Samples: []Sample{
				{Labels: []Label{{Name: "endpoint", Value: "/topk"}}, Value: 42},
				{Labels: []Label{{Name: "endpoint", Value: `weird"value\with`}}, Value: 1},
			},
		},
		{
			Name:    "dppr_queue_depth",
			Help:    "Mutations waiting in the write pipeline.",
			Type:    Gauge,
			Samples: []Sample{{Value: 3}},
		},
		{
			Name: "dppr_request_duration_seconds",
			Help: "Request latency.",
			Type: Histogram,
			Histograms: []HistogramSample{
				{
					Labels: []Label{{Name: "endpoint", Value: "/topk"}},
					Buckets: []Bucket{
						{UpperBound: 8.192e-06, Count: 0},
						{UpperBound: 0.001, Count: 990},
						{UpperBound: math.Inf(1), Count: 1000},
					},
					Sum:   1.5,
					Count: 1000,
				},
			},
		},
		{
			Name:    "dppr_scrape_inf",
			Type:    Gauge,
			Samples: []Sample{{Value: math.Inf(1)}},
		},
	}
}

func TestRenderParseRoundTrip(t *testing.T) {
	var b strings.Builder
	if err := Render(&b, testFamilies()); err != nil {
		t.Fatal(err)
	}
	text := b.String()

	got, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseText of our own output: %v\n%s", err, text)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d families, want 4\n%s", len(got), text)
	}
	req := got[0]
	if req.Name != "dppr_requests_total" || req.Type != Counter || len(req.Samples) != 2 {
		t.Fatalf("family 0: %+v", req)
	}
	if !strings.Contains(req.Help, `"quotes"`) || !strings.Contains(req.Help, `\ backslash`) {
		t.Fatalf("help round trip: %q", req.Help)
	}
	if req.Samples[1].Labels[0].Value != `weird"value\with` {
		t.Fatalf("label escaping round trip: %q", req.Samples[1].Labels[0].Value)
	}
	if want := testFamilies()[2]; !reflect.DeepEqual(got[2], want) {
		t.Fatalf("histogram family round trip:\n got %+v\nwant %+v\n%s", got[2], want, text)
	}
	if !math.IsInf(got[3].Samples[0].Value, 1) {
		t.Fatalf("Inf round trip: %v", got[3].Samples[0].Value)
	}
}

func TestRenderValidation(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name string
		fams []Family
	}{
		{"bad metric name", []Family{{Name: "1bad", Type: Gauge}}},
		{"bad label name", []Family{{Name: "ok", Type: Gauge,
			Samples: []Sample{{Labels: []Label{{Name: "0bad", Value: "x"}}}}}}},
		{"reserved label prefix", []Family{{Name: "ok", Type: Gauge,
			Samples: []Sample{{Labels: []Label{{Name: "__internal", Value: "x"}}}}}}},
		{"duplicate family", []Family{{Name: "ok", Type: Gauge}, {Name: "ok", Type: Gauge}}},
		{"unknown type", []Family{{Name: "ok", Type: Type("histogramish")}}},
		{"negative counter", []Family{{Name: "ok", Type: Counter, Samples: []Sample{{Value: -1}}}}},
		{"counter with histograms", []Family{{Name: "ok", Type: Counter,
			Histograms: []HistogramSample{{}}}}},
		{"histogram with scalar samples", []Family{{Name: "ok", Type: Histogram,
			Samples: []Sample{{Value: 1}}}}},
		{"histogram missing +Inf", []Family{{Name: "ok", Type: Histogram,
			Histograms: []HistogramSample{{Buckets: []Bucket{{UpperBound: 1, Count: 2}}, Count: 2}}}}},
		{"histogram decreasing counts", []Family{{Name: "ok", Type: Histogram,
			Histograms: []HistogramSample{{Buckets: []Bucket{{UpperBound: 1, Count: 3}, {UpperBound: inf, Count: 2}}, Count: 2}}}}},
		{"histogram non-increasing le", []Family{{Name: "ok", Type: Histogram,
			Histograms: []HistogramSample{{Buckets: []Bucket{{UpperBound: 1, Count: 1}, {UpperBound: 1, Count: 2}, {UpperBound: inf, Count: 2}}, Count: 2}}}}},
		{"histogram +Inf != count", []Family{{Name: "ok", Type: Histogram,
			Histograms: []HistogramSample{{Buckets: []Bucket{{UpperBound: inf, Count: 2}}, Count: 3}}}}},
		{"histogram reserved le label", []Family{{Name: "ok", Type: Histogram,
			Histograms: []HistogramSample{{Labels: []Label{{Name: "le", Value: "x"}}, Buckets: []Bucket{{UpperBound: inf}}}}}}},
		{"duplicate label", []Family{{Name: "ok", Type: Gauge,
			Samples: []Sample{{Labels: []Label{{Name: "a", Value: "1"}, {Name: "a", Value: "2"}}}}}}},
	}
	for _, tc := range cases {
		var b strings.Builder
		if err := Render(&b, tc.fams); err == nil {
			t.Errorf("%s: Render accepted invalid input:\n%s", tc.name, b.String())
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := []struct{ name, text string }{
		{"sample before TYPE", "foo 1\n"},
		{"duplicate TYPE", "# TYPE foo gauge\n# TYPE foo gauge\nfoo 1\n"},
		{"unknown TYPE", "# TYPE foo sidecar\nfoo 1\n"},
		{"bad value", "# TYPE foo gauge\nfoo oops\n"},
		{"unterminated labels", "# TYPE foo gauge\nfoo{a=\"b\" 1\n"},
		{"unquoted label value", "# TYPE foo gauge\nfoo{a=b} 1\n"},
		{"bad escape", `# TYPE foo gauge` + "\n" + `foo{a="\q"} 1` + "\n"},
		{"negative counter", "# TYPE foo counter\nfoo -1\n"},
		{"duplicate series", "# TYPE foo gauge\nfoo{a=\"1\"} 1\nfoo{a=\"1\"} 2\n"},
		{"interleaved families", "# TYPE foo gauge\nfoo 1\n# TYPE bar gauge\nbar 1\nfoo 2\n"},
		{"summary type", "# TYPE foo summary\nfoo{quantile=\"0.5\"} 0.5\nfoo_sum 1\nfoo_count 2\n"},
		{"histogram bare sample", "# TYPE foo histogram\nfoo 0.5\n"},
		{"histogram bucket without le", "# TYPE foo histogram\nfoo_bucket 1\nfoo_sum 1\nfoo_count 1\n"},
		{"histogram missing +Inf", "# TYPE foo histogram\nfoo_bucket{le=\"1\"} 1\nfoo_sum 1\nfoo_count 1\n"},
		{"histogram decreasing counts", "# TYPE foo histogram\nfoo_bucket{le=\"1\"} 3\nfoo_bucket{le=\"+Inf\"} 2\nfoo_sum 1\nfoo_count 2\n"},
		{"histogram non-increasing le", "# TYPE foo histogram\nfoo_bucket{le=\"2\"} 1\nfoo_bucket{le=\"1\"} 1\nfoo_bucket{le=\"+Inf\"} 1\nfoo_sum 1\nfoo_count 1\n"},
		{"histogram +Inf != count", "# TYPE foo histogram\nfoo_bucket{le=\"+Inf\"} 2\nfoo_sum 1\nfoo_count 3\n"},
		{"histogram user le label", "# TYPE foo histogram\nfoo_bucket{le=\"+Inf\"} 1\nfoo_sum{le=\"x\"} 1\nfoo_count{le=\"x\"} 1\n"},
		{"HELP after samples", "# TYPE foo gauge\nfoo 1\n# HELP foo late\n"},
		{"bad timestamp", "# TYPE foo gauge\nfoo 1 notatime\n"},
		{"invalid metric name", "# TYPE fo-o gauge\nfo-o 1\n"},
	}
	for _, tc := range cases {
		if _, err := ParseText(strings.NewReader(tc.text)); err == nil {
			t.Errorf("%s: parser accepted:\n%s", tc.name, tc.text)
		}
	}
}

func TestParseAcceptsFormatFlexibility(t *testing.T) {
	// Things the exposition format allows that we do not emit ourselves:
	// free comments, timestamps, trailing label commas, Inf/NaN, escapes.
	text := strings.Join([]string{
		`# scraped by test`,
		`# HELP foo A help line with \\ and \n escapes`,
		`# TYPE foo gauge`,
		`foo{a="x",} 1 1712345678901`,
		`foo{a="y"} NaN`,
		`foo +Inf`,
		`# TYPE bar histogram`,
		`bar_bucket{le="0.5"} 40`,
		`bar_bucket{le="Inf"} 100`,
		`bar_sum 10`,
		`bar_count 100`,
		``,
	}, "\n")
	fams, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 2 {
		t.Fatalf("families: %+v", fams)
	}
	if fams[0].Help != "A help line with \\ and \n escapes" {
		t.Fatalf("help unescape: %q", fams[0].Help)
	}
	if len(fams[0].Samples) != 3 || !math.IsNaN(fams[0].Samples[1].Value) {
		t.Fatalf("samples: %+v", fams[0].Samples)
	}
	if h := fams[1].Histograms[0]; h.Count != 100 || len(h.Buckets) != 2 || h.Buckets[0] != (Bucket{UpperBound: 0.5, Count: 40}) {
		t.Fatalf("histogram: %+v", h)
	}
}

func TestSortFamiliesStable(t *testing.T) {
	fams := []Family{
		{Name: "zzz", Type: Gauge, Samples: []Sample{{Value: 1}}},
		{Name: "aaa", Type: Gauge, Samples: []Sample{
			{Labels: []Label{{Name: "l", Value: "b"}}, Value: 2},
			{Labels: []Label{{Name: "l", Value: "a"}}, Value: 1},
		}},
	}
	SortFamilies(fams)
	if fams[0].Name != "aaa" || fams[1].Name != "zzz" {
		t.Fatalf("family order: %s, %s", fams[0].Name, fams[1].Name)
	}
	if fams[0].Samples[0].Labels[0].Value != "a" {
		t.Fatalf("sample order: %+v", fams[0].Samples)
	}
}

func TestHandler(t *testing.T) {
	h := Handler(func() []Family { return testFamilies() })
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Fatalf("Content-Type %q", ct)
	}
	fams, err := ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 4 {
		t.Fatalf("families over HTTP: %d", len(fams))
	}

	post, err := http.Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status %d, want 405", post.StatusCode)
	}
}
