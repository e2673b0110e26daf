// Command benchmark is the repository's performance ledger: one run executes
// one workload from one seed against an in-process dppr-httpd (Service behind
// httpapi.Server, clients over loopback keep-alive connections), checks the
// answers against the power-iteration oracle and prints every end-to-end
// metric by name. With -trace 1 it additionally replays a sample of the
// workload at successive depths of the stack, times each layer's public
// functions from outside, and prints the per-layer metrics instead. See
// README.md for the workloads, the metrics and how they are meant to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// runSeconds mirrors BENCHMARK.json's run_seconds: the measured time of one
// run at scale 1 on the reference box. Work is fixed by op count, never by
// duration, so -seconds scales the op counts in proportion.
const runSeconds = 15

// dirs removes the run's scratch directories on exit and on a signal.
type dirs struct {
	mu   sync.Mutex
	live map[string]bool
}

var cleanup = dirs{live: map[string]bool{}}

// add registers dir and returns the function that removes it.
func (d *dirs) add(dir string) func() {
	d.mu.Lock()
	d.live[dir] = true
	d.mu.Unlock()
	return func() {
		os.RemoveAll(dir)
		d.mu.Lock()
		delete(d.live, dir)
		d.mu.Unlock()
	}
}

func (d *dirs) removeAll() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for dir := range d.live {
		os.RemoveAll(dir)
	}
}

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		if p := child.Load(); p != nil {
			p.Signal(syscall.SIGTERM) // the child removes its own directories
		}
		cleanup.removeAll()
		os.Exit(130)
	}()
	os.Exit(mainRun(os.Args[1:], os.Stdout, os.Stderr))
}

func mainRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: read-tracked, cold-longtail, write-stream or serve-mixed")
		seed    = fs.Int64("seed", 1, "seed of the run's inputs")
		seconds = fs.Float64("seconds", runSeconds, "scales the fixed op counts; the default is the run length BENCHMARK.json states")
		trace   = fs.Int("trace", 0, "1: also replay at depth, probe the layers, write trace-<workload>.json and print the per-layer metrics")
		aa      = fs.Int("aa", 0, "A/A mode: run N sets of every workload twice and compare the medians")
		quick   = fs.Bool("quick", false, "smoke run: a tenth of the op counts, bounds do not apply")
		tmp     = fs.String("tmp", ".bench_build/tmp", "scratch directory for data directories (removed on exit)")
		out     = fs.String("out", "benchmark/out", "directory for trace files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	scale := *seconds / runSeconds
	if *quick {
		scale /= 10
	}
	if *aa > 0 {
		if err := runAA(*aa, *seed, *seconds, *quick, *tmp, *out, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q; have", *name)
		for _, w := range workloads {
			fmt.Fprintf(stderr, " %s", w.name)
		}
		fmt.Fprintln(stderr)
		return 2
	}
	cfg := config{
		w: w, sz: fullSizes, seed: *seed, scale: scale, tmp: *tmp, out: *out, trace: *trace != 0,
		log: func(format string, args ...any) { fmt.Fprintf(stderr, "# "+format+"\n", args...) },
	}
	rep, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printReport(stdout, rep, *quick)
	if rep.failed > 0 {
		for _, n := range rep.notes {
			fmt.Fprintln(stderr, "failed:", n)
		}
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printReport(w io.Writer, rep *report, quick bool) {
	cfg := rep.cfg
	fmt.Fprintf(w, "workload %s  seed %d  GOMAXPROCS %d  nproc %d  scale %.3g  script %016x\n",
		cfg.w.name, cfg.seed, rep.gomaxprocs, rep.nproc, cfg.scale, rep.scriptHash)
	fmt.Fprintf(w, "fixture  R-MAT %d vertices, %d edge occurrences, initial window %.0f %% -> %d vertices, %d live edges; %d tracked sources; alpha %g, epsilon %g, engine deterministic, sync none\n",
		cfg.sz.vertices, cfg.sz.edges, initialWindow*100, rep.vertices, rep.edges, cfg.sz.sources, alpha, epsilon)
	if quick {
		fmt.Fprintln(w, "quick run: a tenth of the op counts, bounds do not apply")
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	title, specs, vals := "end-to-end", endToEnd, rep.e2e
	if cfg.trace {
		printValues(w, "end-to-end (traced run, informational)", endToEnd, rep.e2e)
		title, specs, vals = "per-layer", perLayer, rep.layer
	}
	printValues(w, title, specs, vals)
	for _, m := range specs {
		res.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	fmt.Fprintf(w, "work pushes=%d updates=%d per repetition\n", rep.pushes, rep.updates)
	fmt.Fprintf(w, "ops attempted %d, failed %d\n", rep.attempted, rep.failed)
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // a struct of numbers and strings always marshals
	}
	fmt.Fprintf(w, "%s\n", line)
}

func printValues(w io.Writer, title string, specs []metricSpec, vals values) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, m := range specs {
		note := m.better() + " is better"
		if m.bound > 0 {
			note += fmt.Sprintf(", bound %.2f", m.bound)
		}
		fmt.Fprintf(w, "  %-32s %14.6g %-6s (%s)\n", m.name, vals[m.name], m.unit, note)
	}
}
