package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"dynppr/internal/httpapi"
)

// testSizes runs the full code path on a fixture small enough for tier-1.
var testSizes = sizes{vertices: 2000, edges: 20000, sources: 4, smallSlide: 5, bulkSlide: 100, zipfDistinct: 64}

func testConfig(t *testing.T, workload string, seed int64) config {
	t.Helper()
	w, ok := workloadByName(workload)
	if !ok {
		t.Fatalf("no workload %q", workload)
	}
	return config{
		w: w, sz: testSizes, seed: seed, scale: 0.01, tmp: t.TempDir(), out: t.TempDir(),
		log: func(string, ...any) {},
	}
}

func TestQuantileNearestRank(t *testing.T) {
	d := []time.Duration{50, 10, 40, 20, 30}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 30}, {0.2, 10}, {0.21, 20}, {0.99, 50}, {1, 50}, {0, 10}} {
		if got := quantile(d, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if d[0] != 50 {
		t.Error("quantile reordered its input")
	}
	if got := median([]time.Duration{1, 2, 3, 4}); got != 2 {
		t.Errorf("median of an even count = %v, want the lower middle 2", got)
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing should be 0")
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]; median 5.5.
	v := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := medianFloat(v); got != 5.5 {
		t.Errorf("medianFloat = %v, want 5.5", got)
	}
}

func TestBestOfRepetitions(t *testing.T) {
	rates := []float64{24.1, 27.9, 26.0}
	if got := best(rates, true); got != 27.9 {
		t.Errorf("best rate = %v, want the highest", got)
	}
	if got := best(rates, false); got != 24.1 {
		t.Errorf("best time = %v, want the lowest", got)
	}
	if got, want := repSpread(rates), 27.9/24.1; math.Abs(got-want) > 1e-12 {
		t.Errorf("repSpread = %v, want worst/best = %v", got, want)
	}
}

// TestBestOverRepetitions: a stall that hits different ops in different
// repetitions must vanish from both the p50 and the rate.
func TestBestOverRepetitions(t *testing.T) {
	phase := func(lats ...time.Duration) phaseSamples {
		var s []sample
		var end time.Duration
		for _, l := range lats {
			end += l
			s = append(s, sample{kind: kindTopK, lat: l, end: end, rp: reply{ok: true}})
		}
		return phaseSamples{s}
	}
	const ms10 = 10 * time.Millisecond
	reps := []phaseSamples{
		phase(ms10, ms10, 5*ms10, ms10),
		phase(ms10, 4*ms10, ms10, ms10),
	}
	for i, l := range bestLatencies(reps, anyOp) {
		if l != ms10 {
			t.Errorf("op %d: best latency %v, want %v", i, l, ms10)
		}
	}
	if got, want := bestRate(reps), 4/(4*ms10).Seconds(); math.Abs(got-want) > 1e-9 {
		t.Errorf("bestRate = %v ops/s, want %v", got, want)
	}
	reps[1][0][1].rp.ok = false // a failed op never supplies the best latency
	reps[0][0][1].lat = 3 * ms10
	if got := bestLatencies(reps, anyOp)[1]; got != 3*ms10 {
		t.Errorf("best latency of an op that failed once = %v, want %v", got, 3*ms10)
	}
}

func TestSelfTimeSubtraction(t *testing.T) {
	// wire 100 ⊃ httpapi 60 ⊃ service 45 ⊃ push 50 (noise: deeper measured slower).
	got := selfTimes([]time.Duration{100, 60, 45, 50})
	want := []time.Duration{40, 15, 0, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of depth %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestOpenLoopTimesFromDueTime drives openLoop against a server that takes
// 30 ms per answer, on one connection, with ops due every 10 ms: each op
// must be charged the stall its predecessors caused.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const service = 30 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		json.NewEncoder(w).Encode(httpapi.TopKResult{
			Snapshot: httpapi.SnapshotMeta{Converged: true, Epoch: 1},
			Results:  []httpapi.VertexScore{{Vertex: 1, Score: 1}},
		})
	}))
	defer srv.Close()
	tl := &tally{}
	cn := &conn{c: httpapi.NewClient(srv.URL, nil), t: tl, epochs: map[int32]uint64{}}
	ops := make([]op, 3)
	for i := range ops {
		ops[i] = op{kind: kindTopK, source: 7, due: time.Duration(i) * 10 * time.Millisecond}
	}
	out := openLoop([]*conn{cn}, ops, time.Now().Add(5*time.Millisecond))
	if tl.failed.Load() != 0 {
		t.Fatalf("ops failed: %v", tl.notes)
	}
	for i, s := range out {
		wantLat := time.Duration(i+1)*service - ops[i].due // served back to back from t=0
		if s.lat < wantLat-2*time.Millisecond || s.lat > wantLat+25*time.Millisecond {
			t.Errorf("op %d: latency from due time %v, want about %v", i, s.lat, wantLat)
		}
		wantLate := time.Duration(i)*service - ops[i].due
		if s.late < wantLate-2*time.Millisecond || s.late > wantLate+25*time.Millisecond {
			t.Errorf("op %d: sent %v late, want about %v", i, s.late, wantLate)
		}
	}
}

// TestDeterminism runs the real code path on the small fixture: the same
// seed must give the same script, the same pushes and the same op count, and
// another seed another script.
func TestDeterminism(t *testing.T) {
	a, err := execute(testConfig(t, "write-stream", 5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := execute(testConfig(t, "write-stream", 5))
	if err != nil {
		t.Fatal(err)
	}
	c, err := execute(testConfig(t, "write-stream", 6))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*report{a, b, c} {
		if r.failed != 0 {
			t.Fatalf("seed %d: %d of %d ops failed: %v", r.cfg.seed, r.failed, r.attempted, r.notes)
		}
	}
	if a.scriptHash != b.scriptHash {
		t.Errorf("same seed, different script hash: %x vs %x", a.scriptHash, b.scriptHash)
	}
	if a.pushes != b.pushes || a.updates != b.updates {
		t.Errorf("same seed, different work: %d/%d vs %d/%d pushes/updates", a.pushes, a.updates, b.pushes, b.updates)
	}
	if a.attempted != b.attempted {
		t.Errorf("same seed, different ops attempted: %d vs %d", a.attempted, b.attempted)
	}
	if a.scriptHash == c.scriptHash {
		t.Errorf("seeds 5 and 6 gave the same script hash %x", a.scriptHash)
	}
	for _, m := range endToEnd {
		if v := a.e2e[m.name]; !(v > 0) {
			t.Errorf("%s = %v, want a positive value", m.name, v)
		}
	}
}

// TestEveryWorkloadTraced smoke-tests every workload, traced, on the small
// fixture: no op fails, every metric of both tables is reported, and the
// trace file holds spans of every depth.
func TestEveryWorkloadTraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // the runs mostly wait on fsyncs and timers
			traceSmoke(t, w)
		})
	}
}

func traceSmoke(t *testing.T, w workload) {
	cfg := testConfig(t, w.name, 3)
	cfg.trace = true
	rep, err := execute(cfg)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if rep.failed != 0 {
		t.Errorf("%s: %d of %d ops failed: %v", w.name, rep.failed, rep.attempted, rep.notes)
	}
	for _, m := range endToEnd {
		if _, ok := rep.e2e[m.name]; !ok {
			t.Errorf("%s: end-to-end metric %s missing", w.name, m.name)
		}
	}
	for _, m := range perLayer {
		if _, ok := rep.layer[m.name]; !ok {
			t.Errorf("%s: layer metric %s missing", w.name, m.name)
		}
	}
	raw, err := os.ReadFile(cfg.out + "/trace-" + w.name + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct{ Spans []span }
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range file.Spans {
		seen[s.Name] = true
		if s.End < s.Start {
			t.Fatalf("%s: span ends before it starts: %+v", w.name, s)
		}
	}
	for depth := range depthParent {
		if !seen[depth] {
			t.Errorf("%s: no span at depth %s", w.name, depth)
		}
	}
}

// TestBenchmarkJSONAgrees holds BENCHMARK.json at the repository root
// against the tables this program prints from.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var file struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the program assumes %d", file.RunSeconds, runSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, file.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better() || g.Bound != m.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd)
	check("per_layer", file.PerLayer, perLayer)
}
