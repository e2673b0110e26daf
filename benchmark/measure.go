package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"
)

// config is one run's input.
type config struct {
	w     workload
	sz    sizes
	seed  int64
	scale float64 // op counts relative to BENCHMARK.json's run_seconds
	tmp   string  // scratch root; the run works in a subdirectory it removes
	out   string  // where trace-<workload>.json goes
	trace bool
	log   func(format string, args ...any)
}

// report is one run's output.
type report struct {
	cfg        config
	gomaxprocs int
	nproc      int
	scriptHash uint64
	vertices   int
	edges      int
	e2e        values
	layer      values
	// rawP50 is, per op kind, the plain median over the raw samples of all
	// repetitions (reads: both tracked kinds under kindTopK).
	rawP50    map[opKind]time.Duration
	pushes    int64 // of one repetition: identical for every run of a seed
	updates   int64
	attempted int64
	failed    int64
	notes     []string
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// execute runs one workload from one seed: set-up, the repetitions, and on a
// traced run the depth replay and layer probes.
func execute(cfg config) (*report, error) {
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(cfg.tmp, "run-")
	if err != nil {
		return nil, err
	}
	defer cleanup.add(runDir)()

	rep := &report{cfg: cfg, gomaxprocs: runtime.GOMAXPROCS(0), nproc: runtime.NumCPU(), e2e: values{}, layer: values{}}

	// Set-up, several times: the same work from the same seed, so the
	// fastest is the least disturbed. The last one's checkpoint is the base
	// every repetition boots from.
	var (
		fx    *fixture
		base  string
		setup setupTimes
	)
	for i := 0; i < setUps; i++ {
		runtime.GC()
		dir := filepath.Join(runDir, fmt.Sprintf("setup%d", i))
		f, nd, t, err := setUp(cfg.sz, cfg.seed, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		st := nd.svc.Stats()
		rep.vertices, rep.edges = st.Vertices, st.Edges
		if err := nd.stop(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if i == 0 || t.total < setup.total {
			setup = t
		}
		if base != "" {
			os.RemoveAll(base)
		}
		fx, base = f, dir
		cfg.log("set-up %d: %.3f s (gen %.3f, graph %.3f, cold start + checkpoint %.3f)",
			i, t.total.Seconds(), t.gen.Seconds(), t.fromEdges.Seconds(), t.coldStart.Seconds())
	}

	sc, err := buildScript(fx, cfg.w, cfg.scale)
	if err != nil {
		return nil, err
	}
	rep.scriptHash = sc.hash
	r := &run{w: cfg.w, fx: fx, sc: sc, base: base, tmp: runDir, t: &tally{}, log: cfg.log}
	if err := r.buildOracle(); err != nil {
		return nil, err
	}

	gc0, cpu0 := gcCPUSeconds(), cpuTime()
	reps := make([]repResult, repetitions)
	for i := range reps {
		mark := time.Now()
		if reps[i], err = r.repetition(i, i == repetitions-1); err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i, err)
		}
		cfg.log("repetition %d: %.2f s, recovery %.3f s", i, time.Since(mark).Seconds(), reps[i].recover.Seconds())
	}
	gcShare := 0.0
	if cpu := (cpuTime() - cpu0).Seconds(); cpu > 0 {
		gcShare = (gcCPUSeconds() - gc0) / cpu
	}

	// The deterministic engine makes the repetitions do bit-identical work;
	// if they did not, the timings are not comparable and the run is invalid.
	r.t.attempted.Add(1)
	for i := 1; i < len(reps); i++ {
		if reps[i].pushes != reps[0].pushes || reps[i].answers != reps[0].answers {
			r.t.fail("repetition %d diverged from repetition 0 (pushes %d vs %d): work was not identical", i, reps[i].pushes, reps[0].pushes)
			break
		}
	}
	last := reps[len(reps)-1]
	rep.pushes, rep.updates = last.pushes, last.updates

	endToEndValues(rep.e2e, cfg, sc, reps)
	rep.e2e["setup_s"] = setup.total.Seconds()
	rep.e2e["heap_live_mb"] = r.heapLiveMB

	ly := rep.layer
	ly["service.coldstart_s"] = setup.coldStart.Seconds()
	ly["gen.edgelist_s"] = setup.gen.Seconds()
	ly["graph.fromedges_s"] = setup.fromEdges.Seconds()
	ly["proc.gc_cpu_share"] = gcShare
	rep.rawP50 = repetitionLayerValues(ly, reps)
	statsLayerValues(ly, r)
	if cfg.trace {
		if err := traceRun(cfg, r, rep); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	// Everything the run started has been stopped by now.
	ly["proc.peak_rss_mb"] = peakRSSMB()
	ly["proc.goroutines_end"] = float64(runtime.NumGoroutine())

	rep.attempted, rep.failed, rep.notes = r.t.attempted.Load(), r.t.failed.Load(), r.t.notes
	return rep, nil
}

// across collects one phase's samples from every repetition.
func across(reps []repResult, pick func(repResult) phaseSamples) []phaseSamples {
	out := make([]phaseSamples, len(reps))
	for i, x := range reps {
		out[i] = pick(x)
	}
	return out
}

// perRep evaluates f on every repetition.
func perRep(reps []repResult, f func(repResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, x := range reps {
		out[i] = f(x)
	}
	return out
}

func p50ms(reps []phaseSamples, keep func(sample) bool) float64 {
	return ms(median(bestLatencies(reps, keep)))
}

// endToEndValues fills in the metrics the repetitions measure (all but
// setup_s and heap_live_mb). Latencies and closed-loop rates are taken op by
// op over the repetitions (bestLatencies, bestRate); one-shot figures are the
// best repetition's.
func endToEndValues(e values, cfg config, sc *script, reps []repResult) {
	reads := across(reps, func(x repResult) phaseSamples { return x.reads })
	colds := across(reps, func(x repResult) phaseSamples { return x.colds })
	small := across(reps, func(x repResult) phaseSamples { return x.small })
	bulk := across(reps, func(x repResult) phaseSamples { return x.bulk })
	if cfg.w.primary == phaseOpen {
		reader := across(reps, func(x repResult) phaseSamples { return x.reader })
		writer := across(reps, func(x repResult) phaseSamples { return x.writer })
		// The schedule fixes the offered rate; the achieved one falls
		// below it only if the server cannot keep up.
		achieved := func(ops int) float64 {
			return best(perRep(reps, func(x repResult) float64 { return float64(ops) / x.openWall.Seconds() }), true)
		}
		e["ops_per_s"] = achieved(len(sc.reader))
		e["updates_per_s"] = achieved(countUpdates(sc.writer))
		e["read_p50_ms"] = p50ms(reader, isTracked)
		e["cold_p50_ms"] = p50ms(reader, isUncachedCold)
		e["write_p50_ms"] = p50ms(writer, anyOp)
	} else {
		e["ops_per_s"] = bestRate(reads)
		if cfg.w.primary == phaseColds {
			e["ops_per_s"] = bestRate(colds)
		}
		e["updates_per_s"] = bestRate(small) * float64(2*cfg.sz.smallSlide)
		e["read_p50_ms"] = p50ms(reads, isTracked)
		e["cold_p50_ms"] = p50ms(colds, isUncachedCold)
		e["write_p50_ms"] = p50ms(small, anyOp)
	}
	e["bulk_updates_per_s"] = bestRate(bulk) * float64(2*cfg.sz.bulkSlide)
	e["recover_s"] = best(perRep(reps, func(x repResult) float64 { return x.recover.Seconds() }), false)
	e["cpu_s_per_kop"] = best(perRep(reps, func(x repResult) float64 { return x.primary.cpu.Seconds() / x.kops() }), false)
}

// repetitionLayerValues fills in the layer metrics the measured repetitions
// give for free. Tail latencies pool every repetition's raw samples: a p99 is
// about the disturbed ops.
func repetitionLayerValues(ly values, reps []repResult) map[opKind]time.Duration {
	var reads, colds, writes, batches, late []time.Duration
	for _, x := range reps {
		for _, s := range append(x.reads.all(), x.reader.all()...) {
			if isTracked(s) && s.rp.ok {
				reads = append(reads, s.lat)
			}
		}
		coldSide := x.colds
		if len(x.reader) > 0 {
			coldSide = x.reader
		}
		for _, s := range coldSide.all() {
			if isUncachedCold(s) && s.rp.ok {
				colds = append(colds, s.lat)
			}
		}
		for _, s := range append(x.small.all(), x.writer.all()...) {
			writes = append(writes, s.lat)
			batches = append(batches, s.rp.latency)
		}
		// Only an open loop has a schedule to be late for.
		for _, s := range append(x.reader.all(), x.writer.all()...) {
			late = append(late, s.late)
		}
	}
	last := reps[len(reps)-1]
	ly["httpapi.read_p99_ms"] = ms(quantile(reads, 0.99))
	ly["httpapi.write_p99_ms"] = ms(quantile(writes, 0.99))
	ly["service.batch_ms"] = ms(median(batches))
	ly["service.pushes_per_update"] = float64(last.pushes) / float64(last.updates)
	ly["persist.checkpoint_ms"] = best(perRep(reps, func(x repResult) float64 { return ms(x.ckpt) }), false)
	ly["proc.alloc_mb_per_kop"] = float64(last.primary.alloc) / (1 << 20) / last.kops()
	ly["proc.rep_spread"] = repSpread(perRep(reps, func(x repResult) float64 { return x.primaryWall.Seconds() }))
	ly["proc.gen_late_p50_ms"] = ms(median(late))
	return map[opKind]time.Duration{kindTopK: median(reads), kindCold: median(colds), kindSmall: median(writes)}
}

// statsLayerValues reads the counters the server reported at the end of the
// last repetition's measured phases.
func statsLayerValues(ly values, r *run) {
	st := r.stats
	share := func(part, whole float64) float64 {
		if whole == 0 {
			return 0
		}
		return part / whole
	}
	ly["httpapi.coalesced_share"] = share(float64(st.Overload.Coalesced), float64(st.HTTP["/topk"].Requests))
	ly["httpapi.shed_count"] = float64(st.Overload.Shed)
	var full, delta float64
	for _, s := range st.Service.Sources {
		full += float64(s.FullPublishes)
		delta += float64(s.DeltaPublishes)
	}
	ly["service.delta_publish_share"] = share(delta, full+delta)
	if od := st.Service.OnDemand; od != nil {
		ly["ondemand.cache_hit_share"] = share(float64(od.CacheHits), float64(od.CacheHits+od.CacheMisses))
		ly["ondemand.cold_pushes"] = float64(od.ColdPushes)
	}
	ly["service.compactions"] = float64(r.storage.Compactions)
	ly["service.compaction_ms"] = ms(r.storage.LastCompaction)
	ly["graph.delta_edges_end"] = float64(r.storage.DeltaEdges)
}
