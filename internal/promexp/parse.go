package promexp

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ParseText parses Prometheus text exposition format (version 0.0.4)
// strictly: families must declare a TYPE before their samples, all samples
// of a family must be contiguous, names and labels must be syntactically
// valid, every value must parse as a float, counters must be non-negative,
// histogram series must pass the same checks Render applies (an le label on
// every bucket, increasing bounds ending at +Inf, non-decreasing cumulative
// counts, +Inf equal to _count), and no time series may appear twice. It is
// the validation half of this package: a test that round-trips an
// exporter's output through ParseText proves a real scraper can ingest it.
func ParseText(r io.Reader) ([]Family, error) {
	p := &parser{
		scanner: bufio.NewScanner(r),
		byName:  make(map[string]*parsedFamily),
	}
	p.scanner.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	if err := p.run(); err != nil {
		return nil, err
	}
	out := make([]Family, len(p.order))
	for i, name := range p.order {
		f := p.byName[name]
		for _, sig := range f.histogramOrder {
			h := *f.histograms[sig]
			if err := validateHistogram(f.Name, h); err != nil {
				return nil, err
			}
			f.Histograms = append(f.Histograms, h)
		}
		out[i] = f.Family
	}
	return out, nil
}

type parsedFamily struct {
	Family
	closed         bool // a later family started; more samples are an error
	sawSample      bool
	histograms     map[string]*HistogramSample
	histogramOrder []string
	seenSeries     map[string]bool
}

type parser struct {
	scanner *bufio.Scanner
	line    int
	byName  map[string]*parsedFamily
	order   []string
	current *parsedFamily
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("promexp: line %d: %s", p.line, fmt.Sprintf(format, args...))
}

func (p *parser) run() error {
	for p.scanner.Scan() {
		p.line++
		line := p.scanner.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == "":
			continue
		case strings.HasPrefix(trimmed, "# HELP "):
			if err := p.parseHelp(strings.TrimPrefix(trimmed, "# HELP ")); err != nil {
				return err
			}
		case strings.HasPrefix(trimmed, "# TYPE "):
			if err := p.parseType(strings.TrimPrefix(trimmed, "# TYPE ")); err != nil {
				return err
			}
		case strings.HasPrefix(trimmed, "#"):
			continue // free-form comment
		default:
			if err := p.parseSample(trimmed); err != nil {
				return err
			}
		}
	}
	if err := p.scanner.Err(); err != nil {
		return fmt.Errorf("promexp: read: %w", err)
	}
	return nil
}

// family returns the open family named name, creating it if new and closing
// the previously open one if the name changed.
func (p *parser) family(name string) (*parsedFamily, error) {
	if p.current != nil && p.current.Name == name {
		return p.current, nil
	}
	if f, ok := p.byName[name]; ok {
		if f.closed {
			return nil, p.errf("samples of family %q are not contiguous", name)
		}
		return f, nil // only reachable for p.current == f
	}
	if p.current != nil {
		p.current.closed = true
	}
	f := &parsedFamily{
		histograms: make(map[string]*HistogramSample),
		seenSeries: make(map[string]bool),
	}
	f.Name = name
	p.byName[name] = f
	p.order = append(p.order, name)
	p.current = f
	return f, nil
}

func (p *parser) parseHelp(rest string) error {
	name, help, _ := strings.Cut(rest, " ")
	if !validMetricName(name) {
		return p.errf("invalid metric name %q in HELP", name)
	}
	f, err := p.family(name)
	if err != nil {
		return err
	}
	if f.sawSample || f.Type != "" {
		return p.errf("HELP for %q must precede its TYPE and samples", name)
	}
	if f.Help != "" {
		return p.errf("duplicate HELP for %q", name)
	}
	f.Help = unescapeHelp(help)
	return nil
}

func (p *parser) parseType(rest string) error {
	name, typ, _ := strings.Cut(rest, " ")
	if !validMetricName(name) {
		return p.errf("invalid metric name %q in TYPE", name)
	}
	f, err := p.family(name)
	if err != nil {
		return err
	}
	if f.Type != "" {
		return p.errf("duplicate TYPE for %q", name)
	}
	if f.sawSample {
		return p.errf("TYPE for %q must precede its samples", name)
	}
	switch Type(typ) {
	case Counter, Gauge, Histogram:
		f.Type = Type(typ)
	default:
		return p.errf("unknown type %q for %q", typ, name)
	}
	return nil
}

func (p *parser) parseSample(line string) error {
	name, labels, value, err := p.splitSample(line)
	if err != nil {
		return err
	}
	famName := name
	suffix := ""
	if p.current != nil && p.current.Type == Histogram {
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			if name == p.current.Name+s {
				famName, suffix = p.current.Name, s
				break
			}
		}
	}
	if !validMetricName(famName) {
		return p.errf("invalid metric name %q", famName)
	}
	f, err := p.family(famName)
	if err != nil {
		return err
	}
	if f.Type == "" {
		return p.errf("sample for %q before its TYPE declaration", famName)
	}
	f.sawSample = true

	series := name + "\xff" + labelKey(labels)
	if f.seenSeries[series] {
		return p.errf("duplicate series %q{%s}", name, labelKey(labels))
	}
	f.seenSeries[series] = true

	if f.Type == Histogram {
		return p.addHistogramSample(f, suffix, labels, value)
	}
	if f.Type == Counter && (value < 0 || math.IsNaN(value)) {
		return p.errf("counter %q has non-counter value %v", name, value)
	}
	f.Samples = append(f.Samples, Sample{Labels: labels, Value: value})
	return nil
}

func (p *parser) addHistogramSample(f *parsedFamily, suffix string, labels []Label, value float64) error {
	if suffix == "" {
		return p.errf("histogram %q sample needs a _bucket, _sum or _count suffix", f.Name)
	}
	le := ""
	base := make([]Label, 0, len(labels))
	for _, l := range labels {
		if l.Name == "le" {
			if suffix != "_bucket" {
				return p.errf("histogram %q: label le is reserved for buckets", f.Name)
			}
			le = l.Value
			continue
		}
		base = append(base, l)
	}
	sig := labelKey(base)
	h, ok := f.histograms[sig]
	if !ok {
		h = &HistogramSample{Labels: base}
		f.histograms[sig] = h
		f.histogramOrder = append(f.histogramOrder, sig)
	}
	if suffix == "_sum" {
		h.Sum = value
		return nil
	}
	if value < 0 || value != math.Trunc(value) || math.IsInf(value, 1) {
		return p.errf("histogram %q has non-integral count %v", f.Name, value)
	}
	if suffix == "_count" {
		h.Count = uint64(value)
		return nil
	}
	bound, err := parseValue(le)
	if err != nil || math.IsNaN(bound) {
		return p.errf("histogram %q bucket has bad le %q", f.Name, le)
	}
	h.Buckets = append(h.Buckets, Bucket{UpperBound: bound, Count: uint64(value)})
	return nil
}

// splitSample tokenizes `name[{labels}] value [timestamp]`.
func (p *parser) splitSample(line string) (string, []Label, float64, error) {
	rest := line
	nameEnd := strings.IndexAny(rest, "{ \t")
	if nameEnd <= 0 {
		return "", nil, 0, p.errf("malformed sample %q", line)
	}
	name := rest[:nameEnd]
	rest = rest[nameEnd:]

	var labels []Label
	if strings.HasPrefix(rest, "{") {
		end := p.findLabelsEnd(rest)
		if end < 0 {
			return "", nil, 0, p.errf("unterminated label set in %q", line)
		}
		var err error
		labels, err = p.parseLabels(rest[1:end])
		if err != nil {
			return "", nil, 0, err
		}
		rest = rest[end+1:]
	}

	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, p.errf("expected value (and optional timestamp) in %q", line)
	}
	value, err := parseValue(fields[0])
	if err != nil {
		return "", nil, 0, p.errf("bad value %q: %v", fields[0], err)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", nil, 0, p.errf("bad timestamp %q", fields[1])
		}
	}
	return name, labels, value, nil
}

// findLabelsEnd locates the closing brace, skipping quoted strings.
func (p *parser) findLabelsEnd(s string) int {
	inQuote := false
	for i := 1; i < len(s); i++ {
		switch {
		case inQuote && s[i] == '\\':
			i++ // skip the escaped byte
		case s[i] == '"':
			inQuote = !inQuote
		case !inQuote && s[i] == '}':
			return i
		}
	}
	return -1
}

func (p *parser) parseLabels(s string) ([]Label, error) {
	var labels []Label
	seen := make(map[string]bool)
	rest := strings.TrimSpace(s)
	for rest != "" {
		eq := strings.Index(rest, "=")
		if eq <= 0 {
			return nil, p.errf("malformed label in %q", s)
		}
		name := strings.TrimSpace(rest[:eq])
		if !validLabelName(name) {
			return nil, p.errf("invalid label name %q", name)
		}
		if seen[name] {
			return nil, p.errf("duplicate label %q", name)
		}
		seen[name] = true
		rest = strings.TrimSpace(rest[eq+1:])
		if !strings.HasPrefix(rest, `"`) {
			return nil, p.errf("label %q value is not quoted", name)
		}
		value, remainder, err := p.parseQuoted(rest)
		if err != nil {
			return nil, err
		}
		labels = append(labels, Label{Name: name, Value: value})
		rest = strings.TrimSpace(remainder)
		if rest == "" {
			break
		}
		if !strings.HasPrefix(rest, ",") {
			return nil, p.errf("expected ',' between labels in %q", s)
		}
		rest = strings.TrimSpace(rest[1:]) // trailing comma is legal
	}
	return labels, nil
}

// parseQuoted consumes a leading quoted string, handling \\, \" and \n.
func (p *parser) parseQuoted(s string) (string, string, error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
			if i >= len(s) {
				return "", "", p.errf("dangling escape in label value")
			}
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", p.errf("unknown escape \\%c in label value", s[i])
			}
		case '"':
			return b.String(), s[i+1:], nil
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", p.errf("unterminated label value")
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func unescapeHelp(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case '\\':
				b.WriteByte('\\')
				i++
				continue
			case 'n':
				b.WriteByte('\n')
				i++
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}
