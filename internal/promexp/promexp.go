// Package promexp renders metrics in the Prometheus text exposition format
// (version 0.0.4) without depending on the Prometheus client library, and
// provides a strict parser of the same format so the exporter's output can
// be validated in tests and tooling.
//
// The model is deliberately small: a Family is one metric name with a HELP
// string, a TYPE, and its samples; Render writes a slice of families in the
// canonical layout (HELP and TYPE comments once per family, every sample of
// a family contiguous); Handler wraps a gather function into an
// http.Handler for a /metrics endpoint. Validation is strict on the write
// path too — an invalid metric or label name is a programming error that
// should fail loudly in tests, not produce output a scraper silently
// drops.
package promexp

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Type is a metric family's type as declared by the # TYPE comment.
type Type string

// The family types the exporter emits. (The format also defines summary
// and untyped; add them when a producer needs them.)
const (
	Counter   Type = "counter"
	Gauge     Type = "gauge"
	Histogram Type = "histogram"
)

// Label is one name="value" pair.
type Label struct {
	Name, Value string
}

// Sample is one time series of a counter or gauge family.
type Sample struct {
	Labels []Label
	Value  float64
}

// Bucket is one cumulative histogram bucket: Count observations were at
// most UpperBound, the `le` label.
type Bucket struct {
	UpperBound float64
	Count      uint64
}

// HistogramSample is one time series of a histogram family: its cumulative
// buckets in increasing UpperBound order, the last one +Inf, plus the _sum
// and _count aggregates.
type HistogramSample struct {
	Labels  []Label
	Buckets []Bucket
	Sum     float64
	Count   uint64
}

// Family is one exported metric: a name, its HELP text, its TYPE, and the
// samples that share the name. Counter and gauge families fill Samples;
// histogram families fill Histograms.
type Family struct {
	Name       string
	Help       string
	Type       Type
	Samples    []Sample
	Histograms []HistogramSample
}

// ContentType is the Content-Type of a text-format /metrics response.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler wraps gather into an http.Handler serving GET /metrics. Gather
// runs per request; a render error (invalid names — a programming error)
// answers 500 with the message.
func Handler(gather func() []Family) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var buf strings.Builder
		if err := Render(&buf, gather()); err != nil {
			http.Error(w, "metrics render: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		_, _ = io.WriteString(w, buf.String())
	})
}

// Render writes the families in text exposition format, validating names
// and label syntax. Families render in the given order; callers that want
// deterministic output across gathers should sort (see SortFamilies).
func Render(w io.Writer, families []Family) error {
	seen := make(map[string]bool, len(families))
	for _, f := range families {
		if err := validateFamily(f); err != nil {
			return err
		}
		if seen[f.Name] {
			return fmt.Errorf("promexp: duplicate family %q", f.Name)
		}
		seen[f.Name] = true
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, escapeHelp(f.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Type); err != nil {
			return err
		}
		switch f.Type {
		case Histogram:
			for _, s := range f.Histograms {
				for _, b := range s.Buckets {
					labels := append(append([]Label(nil), s.Labels...),
						Label{Name: "le", Value: formatValue(b.UpperBound)})
					if err := writeSample(w, f.Name+"_bucket", labels, float64(b.Count)); err != nil {
						return err
					}
				}
				if err := writeSample(w, f.Name+"_sum", s.Labels, s.Sum); err != nil {
					return err
				}
				if err := writeSample(w, f.Name+"_count", s.Labels, float64(s.Count)); err != nil {
					return err
				}
			}
		default:
			for _, s := range f.Samples {
				if err := writeSample(w, f.Name, s.Labels, s.Value); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// SortFamilies orders families by name and each family's samples by their
// label signature, giving byte-stable output for a fixed metric state.
func SortFamilies(families []Family) {
	sort.Slice(families, func(i, j int) bool { return families[i].Name < families[j].Name })
	for i := range families {
		f := &families[i]
		sort.Slice(f.Samples, func(a, b int) bool {
			return labelKey(f.Samples[a].Labels) < labelKey(f.Samples[b].Labels)
		})
		sort.Slice(f.Histograms, func(a, b int) bool {
			return labelKey(f.Histograms[a].Labels) < labelKey(f.Histograms[b].Labels)
		})
	}
}

func labelKey(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteByte('\xff')
		b.WriteString(l.Value)
		b.WriteByte('\xfe')
	}
	return b.String()
}

func writeSample(w io.Writer, name string, labels []Label, value float64) error {
	if _, err := io.WriteString(w, name); err != nil {
		return err
	}
	if len(labels) > 0 {
		if _, err := io.WriteString(w, "{"); err != nil {
			return err
		}
		for i, l := range labels {
			sep := ","
			if i == 0 {
				sep = ""
			}
			if _, err := fmt.Fprintf(w, `%s%s="%s"`, sep, l.Name, escapeLabelValue(l.Value)); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "}"); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, " %s\n", formatValue(value))
	return err
}

// formatValue renders a float the way Prometheus expects, with +Inf/-Inf
// and NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func validateFamily(f Family) error {
	if !validMetricName(f.Name) {
		return fmt.Errorf("promexp: invalid metric name %q", f.Name)
	}
	switch f.Type {
	case Counter, Gauge:
		if len(f.Histograms) > 0 {
			return fmt.Errorf("promexp: family %q: %s with histogram samples", f.Name, f.Type)
		}
	case Histogram:
		if len(f.Samples) > 0 {
			return fmt.Errorf("promexp: family %q: histogram with scalar samples", f.Name)
		}
		for _, s := range f.Histograms {
			if err := validateHistogram(f.Name, s); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("promexp: family %q: unknown type %q", f.Name, f.Type)
	}
	for _, s := range f.Samples {
		if err := validateLabels(f.Name, s.Labels, false); err != nil {
			return err
		}
	}
	if f.Type == Counter {
		for _, s := range f.Samples {
			if s.Value < 0 || math.IsNaN(s.Value) {
				return fmt.Errorf("promexp: family %q: counter value %v is not a non-negative number", f.Name, s.Value)
			}
		}
	}
	return nil
}

// validateHistogram checks one histogram series the way a scraper reads it:
// strictly increasing bounds ending at +Inf, cumulative counts that never
// decrease, a +Inf bucket equal to _count, and no user label named le.
// Render and ParseText both hold every histogram to it.
func validateHistogram(family string, s HistogramSample) error {
	if err := validateLabels(family, s.Labels, true); err != nil {
		return err
	}
	series := fmt.Sprintf("promexp: family %q{%s}", family, labelKey(s.Labels))
	n := len(s.Buckets)
	if n == 0 || !math.IsInf(s.Buckets[n-1].UpperBound, 1) {
		return fmt.Errorf("%s: no +Inf bucket", series)
	}
	for i := 1; i < n; i++ {
		prev, b := s.Buckets[i-1], s.Buckets[i]
		if !(b.UpperBound > prev.UpperBound) {
			return fmt.Errorf("%s: bucket bounds %v, %v do not increase", series, prev.UpperBound, b.UpperBound)
		}
		if b.Count < prev.Count {
			return fmt.Errorf("%s: cumulative count falls from %d to %d at le=%v", series, prev.Count, b.Count, b.UpperBound)
		}
	}
	if s.Buckets[n-1].Count != s.Count {
		return fmt.Errorf("%s: +Inf bucket %d != _count %d", series, s.Buckets[n-1].Count, s.Count)
	}
	return nil
}

func validateLabels(family string, labels []Label, histogram bool) error {
	seen := make(map[string]bool, len(labels))
	for _, l := range labels {
		if !validLabelName(l.Name) {
			return fmt.Errorf("promexp: family %q: invalid label name %q", family, l.Name)
		}
		if histogram && l.Name == "le" {
			return fmt.Errorf("promexp: family %q: label %q is reserved on histograms", family, l.Name)
		}
		if seen[l.Name] {
			return fmt.Errorf("promexp: family %q: duplicate label %q", family, l.Name)
		}
		seen[l.Name] = true
	}
	return nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, r := range s {
		ok := r == '_' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}
