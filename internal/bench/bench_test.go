package bench

import (
	"bytes"
	"strings"
	"testing"

	"dynppr/internal/gen"
	"dynppr/internal/push"
)

func quick(t *testing.T) (Params, []gen.Dataset) {
	t.Helper()
	p := QuickParams()
	p.Slides = 2
	p.Workers = 2
	return p, QuickDatasets()[:1]
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := QuickParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Params){
		func(p *Params) { p.Alpha = 0 },
		func(p *Params) { p.Epsilon = 0 },
		func(p *Params) { p.Slides = 0 },
		func(p *Params) { p.InitialWindowFraction = 0 },
		func(p *Params) { p.DefaultBatchRatio = 0 },
		func(p *Params) { p.WalksPerVertex = 0 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestBuildWorkload(t *testing.T) {
	p, ds := quick(t)
	w, err := BuildWorkload(ds[0], p)
	if err != nil {
		t.Fatal(err)
	}
	if w.WindowSize <= 0 || len(w.InitialEdges) != w.WindowSize {
		t.Fatalf("window size %d, initial edges %d", w.WindowSize, len(w.InitialEdges))
	}
	if w.BatchSize(0.0000001) != 1 {
		t.Fatal("batch size must be at least 1")
	}
	if w.BatchSize(1) != w.WindowSize {
		t.Fatal("ratio 1 must give the whole window")
	}
	window, g := w.NewRun()
	if window.Size() != w.WindowSize || g.NumEdges() == 0 {
		t.Fatal("NewRun returned inconsistent state")
	}
	// Invalid dataset and params are rejected.
	if _, err := BuildWorkload(gen.Dataset{Config: gen.Config{Vertices: 0}}, p); err == nil {
		t.Fatal("invalid dataset must fail")
	}
	badP := p
	badP.Slides = 0
	if _, err := BuildWorkload(ds[0], badP); err == nil {
		t.Fatal("invalid params must fail")
	}
}

func TestAllApproachesListed(t *testing.T) {
	as := AllApproaches()
	if len(as) != 5 || as[0] != ApproachBase || as[2] != ApproachMT {
		t.Fatalf("AllApproaches = %v", as)
	}
}

func TestPushEngineForErrors(t *testing.T) {
	if _, err := pushEngineFor(ApproachMonteCarlo, push.VariantOpt, 1); err == nil {
		t.Fatal("Monte-Carlo is not a push approach")
	}
}

func TestRunOptimizationEffect(t *testing.T) {
	p, ds := quick(t)
	rows, err := RunOptimizationEffect(p, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*len(ds) {
		t.Fatalf("rows = %d, want %d", len(rows), 4*len(ds))
	}
	variants := map[string]bool{}
	for _, r := range rows {
		if r.MeanLatency <= 0 || r.Pushes == 0 {
			t.Errorf("row %+v has empty measurements", r)
		}
		variants[r.Variant] = true
	}
	for _, v := range []string{"Opt", "Eager", "DupDetect", "Vanilla"} {
		if !variants[v] {
			t.Errorf("missing variant %s", v)
		}
	}
	var buf bytes.Buffer
	if err := PrintOptimizationRows(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Vanilla") {
		t.Fatal("printed table missing data")
	}
}

func TestRunThroughput(t *testing.T) {
	p, ds := quick(t)
	rows, err := RunThroughput(p, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	seen := map[Approach]bool{}
	for _, r := range rows {
		if r.EdgesPerSecond <= 0 {
			t.Errorf("row %+v has non-positive throughput", r)
		}
		seen[r.Approach] = true
	}
	for _, a := range AllApproaches() {
		if !seen[a] {
			t.Errorf("approach %s missing from results", a)
		}
	}
	var buf bytes.Buffer
	if err := PrintThroughputRows(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "CPU-MT") {
		t.Fatal("printed table missing CPU-MT")
	}
}

func TestRunEpsilonSweep(t *testing.T) {
	p, ds := quick(t)
	rows, err := RunEpsilonSweep(p, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(p.EpsilonGrid)*2*len(ds) {
		t.Fatalf("rows = %d", len(rows))
	}
	// Tighter epsilon must not reduce the number of pushes for the same
	// approach (monotone work growth).
	perApproach := map[Approach][]EpsilonRow{}
	for _, r := range rows {
		perApproach[r.Approach] = append(perApproach[r.Approach], r)
	}
	for a, rs := range perApproach {
		for i := 1; i < len(rs); i++ {
			if rs[i].Epsilon < rs[i-1].Epsilon && rs[i].Pushes < rs[i-1].Pushes {
				t.Errorf("%s: pushes decreased from %d to %d as epsilon tightened %.0e -> %.0e",
					a, rs[i-1].Pushes, rs[i].Pushes, rs[i-1].Epsilon, rs[i].Epsilon)
			}
		}
	}
	var buf bytes.Buffer
	if err := PrintEpsilonRows(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestRunSourceDegree(t *testing.T) {
	p, ds := quick(t)
	rows, err := RunSourceDegree(p, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.SourceDegree < 0 || r.MeanLatency <= 0 {
			t.Errorf("bad row %+v", r)
		}
	}
	var buf bytes.Buffer
	if err := PrintSourceRows(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestBucketName(t *testing.T) {
	if bucketName(10) != "top-10" || bucketName(1000) != "top-1K" || bucketName(1_000_000) != "top-1M" {
		t.Fatalf("bucketName wrong: %s %s %s", bucketName(10), bucketName(1000), bucketName(1_000_000))
	}
}

func TestRunBatchSize(t *testing.T) {
	p, ds := quick(t)
	rows, err := RunBatchSize(p, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(p.BatchRatios)*2*len(ds) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Approach == ApproachSeq && r.SpeedupOverSeq != 1 {
			t.Errorf("CPU-Seq speedup over itself should be 1, got %v", r.SpeedupOverSeq)
		}
	}
	var buf bytes.Buffer
	if err := PrintBatchSizeRows(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestRunResourceProfile(t *testing.T) {
	p, ds := quick(t)
	rows, err := RunResourceProfile(p, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(p.BatchRatios)*len(ds) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MeanFrontier <= 0 || r.Iterations == 0 {
			t.Errorf("bad resource row %+v", r)
		}
	}
	var buf bytes.Buffer
	if err := PrintResourceRows(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestRunScalability(t *testing.T) {
	p, ds := quick(t)
	rows, err := RunScalability(p, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(p.WorkerGrid)*len(ds) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.EdgesPerSecond <= 0 || r.SpeedupOverOneWorker <= 0 {
			t.Errorf("bad scalability row %+v", r)
		}
	}
	var buf bytes.Buffer
	if err := PrintScalabilityRows(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestRunAccuracy(t *testing.T) {
	p, ds := quick(t)
	rows, err := RunAccuracy(p, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*len(ds) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MaxError > r.Epsilon {
			t.Errorf("%s/%s: max error %v exceeds epsilon %v", r.Dataset, r.Approach, r.MaxError, r.Epsilon)
		}
	}
	var buf bytes.Buffer
	if err := PrintAccuracyRows(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

// TestMonteCarloCountsEffectiveUpdates holds Fig. 5's numerator to one
// definition: over the same slide sequence, Monte-Carlo counts exactly the
// effective updates CPU-Seq counts (push.Restore's touched list). A
// duplicate insert or a delete of a missing edge — R-MAT streams repeat
// edges — changes no graph, so it counts for neither.
func TestMonteCarloCountsEffectiveUpdates(t *testing.T) {
	p, ds := quick(t)
	w, err := BuildWorkload(ds[0], p)
	if err != nil {
		t.Fatal(err)
	}
	batch, slides := w.BatchSize(p.DefaultBatchRatio), 20
	mc, err := w.runMonteCarlo(1, batch, slides, w.Source)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := w.runPush(ApproachSeq, push.VariantOpt, 1, p.Epsilon, batch, slides, w.Source)
	if err != nil {
		t.Fatal(err)
	}
	if fed := int64(2 * batch * slides); seq.UpdatesApplied == 0 || seq.UpdatesApplied >= fed {
		t.Fatalf("setup: CPU-Seq applied %d of %d updates; the stream must hold no-ops", seq.UpdatesApplied, fed)
	}
	if mc.UpdatesApplied != seq.UpdatesApplied {
		t.Fatalf("Monte-Carlo counted %d updates applied, CPU-Seq %d", mc.UpdatesApplied, seq.UpdatesApplied)
	}
}
