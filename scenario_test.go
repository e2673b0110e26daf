package dynppr

// The scenario model of the serving contract. A scenario is data — an
// initial graph, sources, ε, PoolWorkers, persistence / fault / on-demand
// switches and a list of ops — and runScenario drives a Service and a
// sequential oracle TrackerSet through it in lockstep. The oracle runs over
// its own graph and is fed only the mutations the Service acknowledged, so
// after every op checkServing can demand the paper's contract bit for bit:
// the same source set, the same published estimates, residuals, epochs and
// rankings as the oracle, Equation 2 on every live state, the same graph,
// cold answers identical to the one cold kernel on the oracle's graph and
// within their advertised ε of power iteration, and a decodable checkpoint
// after every restart.
//
// The named differentials at the bottom of the file are scenario
// definitions plus the post-conditions that are truly their own, and
// FuzzScenario feeds random op sequences over a small graph into the same
// harness.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"dynppr/internal/ckpt"
	"dynppr/internal/faultfs"
	"dynppr/internal/graph"
	"dynppr/internal/power"
	"dynppr/internal/push"
	"dynppr/internal/wal"
)

// opKind names one scenario step.
type opKind uint8

const (
	opBatch          opKind = iota // ApplyBatch(batch)
	opAdd                          // UpdateSources adding source
	opRemove                       // UpdateSources removing source
	opCheckpoint                   // Checkpoint()
	opCompactNow                   // CompactNow()
	opCompactBegin                 // freeze a compaction of the graph on the pipeline
	opCompactInstall               // build the frozen compaction off the pipeline, install it on it
	opRestart                      // Close, cut the WAL at cut bytes (< 0 keeps it), recover at pool
	opFault                        // arm rule on the fault injector
	opCold                         // up to reads cold reads of source, stopping once it is tracked
	numOpKinds
)

var opNames = [numOpKinds]string{"batch", "add", "remove", "checkpoint", "compact-now",
	"compact-begin", "compact-install", "restart", "fault", "cold"}

func (k opKind) String() string { return opNames[k] }

// op is one step of a scenario; which fields matter depends on kind.
type op struct {
	kind   opKind
	batch  Batch
	source VertexID
	pool   int
	cut    int64
	rule   faultfs.Rule
	reads  int
}

func batchOp(b Batch) op { return op{kind: opBatch, batch: b} }

func batchOps(bs ...Batch) []op {
	ops := make([]op, len(bs))
	for i, b := range bs {
		ops[i] = batchOp(b)
	}
	return ops
}

func addOp(v VertexID) op              { return op{kind: opAdd, source: v} }
func removeOp(v VertexID) op           { return op{kind: opRemove, source: v} }
func restartOp(pool int, cut int64) op { return op{kind: opRestart, pool: pool, cut: cut} }
func coldOp(v VertexID, reads int) op  { return op{kind: opCold, source: v, reads: reads} }

// pipelineDo runs fn as one task on s's pipeline goroutine.
func pipelineDo(s *Service, fn func() error) error {
	_, err := onPipeline(context.Background(), s, func() (struct{}, error) { return struct{}{}, fn() })
	return err
}

// scenario is one serving history, as data.
type scenario struct {
	initial []Edge
	sources []VertexID
	epsilon float64
	pool    int
	// engine and parallelism are handed to the Service in its Options; it
	// must ignore both.
	engine      EngineKind
	parallelism int
	// persist journals to a data directory (SyncNone); faults does too,
	// through a faultfs.Injector with SyncAlways and a 1 ms probe, and
	// re-offers every mutation while persistence is degraded.
	persist, faults bool
	onDemand        OnDemandOptions
	ops             []op
	// oracles, when set, is shared by the runs of one history: they copy
	// the oracle from it instead of pushing it again. Runs sharing one
	// share initial, sources and epsilon.
	oracles *oracleLog
}

func (sc scenario) options() Options {
	opts := DefaultOptions()
	opts.Epsilon = sc.epsilon
	opts.Engine, opts.Parallelism = sc.engine, sc.parallelism
	return opts
}

// coldAnswer is one cold read an op made, checked by checkServing.
type coldAnswer struct {
	e  *odEntry
	qi QueryInfo
}

// scenarioRun is a scenario in progress: the Service, its oracle, and what
// the oracle was fed.
type scenarioRun struct {
	t   *testing.T
	sc  scenario
	so  ServiceOptions
	po  PersistOptions
	dir string
	in  *faultfs.Injector
	svc *Service
	// boot holds Stats right after the first boot, bootOps the injector's
	// operation count then.
	boot    ServiceStats
	bootOps int64

	oracle *TrackerSet
	// epochs is each oracle source's expected snapshot epoch: 1 at its
	// addition, plus 1 per effective batch; a restart leaves it alone.
	epochs map[VertexID]uint64
	// history lists the acknowledged mutations (batches, additions,
	// removals) in journal order: on a persistent service the i-th carries
	// LSN i.
	history []op
	// logged counts the leading acknowledged mutations that equal those
	// of sc.oracles: while all of them do, the oracle is copied from it.
	logged int
	comp   *graph.Compaction
	cold   []coldAnswer
	steps  int
}

// runScenario boots the scenario's Service, checks it, and runs its ops.
// The returned run stays live (it is closed at cleanup), so a test can read
// its own post-conditions and drive further ops with run.
func runScenario(t *testing.T, sc scenario) *scenarioRun {
	t.Helper()
	r := &scenarioRun{t: t, sc: sc}
	r.so = ServiceOptions{Options: sc.options(), PoolWorkers: sc.pool, OnDemand: sc.onDemand}
	g := GraphFromEdges(sc.initial)
	var err error
	if sc.persist || sc.faults {
		r.dir = filepath.Join(t.TempDir(), "data")
		r.po = PersistOptions{Dir: r.dir, Sync: SyncNone}
		if sc.faults {
			r.in = faultfs.NewInjector(faultfs.OS)
			r.po = PersistOptions{Dir: r.dir, Sync: SyncAlways, FS: r.in, ProbeBackoff: time.Millisecond}
		}
		r.svc, err = NewPersistentService(g, sc.sources, r.so, r.po)
	} else {
		r.svc, err = NewService(g, sc.sources, r.so)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.svc.Close() })
	if r.in != nil {
		r.bootOps = r.in.Ops()
	}
	r.boot = r.svc.Stats()
	r.resetOracle()
	r.checkServing("boot")
	r.run(sc.ops...)
	return r
}

// run drives ops one at a time, checking the serving contract after each.
func (r *scenarioRun) run(ops ...op) {
	r.t.Helper()
	for _, o := range ops {
		r.steps++
		r.step(o)
		r.checkServing(fmt.Sprintf("op %d (%v)", r.steps, o.kind))
	}
}

// resetOracle rebuilds the oracle from the initial graph and replays the
// acknowledged history into it.
func (r *scenarioRun) resetOracle() {
	history, log := r.history, r.sc.oracles
	r.history, r.logged = nil, 0
	if log != nil && len(log.states) > 0 {
		r.restore(log.states[0])
	} else {
		opts := r.sc.options()
		opts.Engine = EngineSequential
		ts, err := newTrackerSet(GraphFromEdges(r.sc.initial), opts, 1, r.sc.sources, nil, nil)
		if err != nil {
			r.t.Fatal(err)
		}
		r.oracle, r.epochs = ts, make(map[VertexID]uint64, len(r.sc.sources))
		for _, s := range r.sc.sources {
			r.epochs[s] = 1
		}
		if log != nil {
			r.record(log)
		}
	}
	for _, m := range history {
		r.ack(m)
	}
}

// mirror applies one acknowledged mutation to the oracle and returns the
// number of effective updates of a batch.
func (r *scenarioRun) mirror(m op) int {
	switch m.kind {
	case opBatch:
		applied, _ := r.oracle.apply(m.batch, nil)
		if applied > 0 {
			for s := range r.epochs {
				r.epochs[s]++
			}
		}
		return applied
	case opAdd:
		if _, err := r.oracle.add(m.source); err != nil {
			r.t.Fatal(err)
		}
		r.epochs[m.source] = 1
	case opRemove:
		r.oracle.remove(m.source)
		delete(r.epochs, m.source)
	}
	return 0
}

// ack records an acknowledged mutation and mirrors it into the oracle, or
// copies the oracle from the log while the history follows the log's.
func (r *scenarioRun) ack(m op) int {
	r.history = append(r.history, m)
	n, log := len(r.history), r.sc.oracles
	if log == nil || r.logged != n-1 {
		return r.mirror(m)
	}
	if n <= len(log.history) {
		if !sameOp(log.history[n-1], m) {
			return r.mirror(m)
		}
		r.logged = n
		r.restore(log.states[n])
		return log.applied[n-1]
	}
	applied := r.mirror(m)
	log.history, log.applied = append(log.history, m), append(log.applied, applied)
	r.record(log)
	r.logged = n
	return applied
}

// oracleLog is the oracle after each acknowledged mutation of one history,
// recorded by the first run to get there.
type oracleLog struct {
	history []op
	applied []int        // each mutation's effective updates
	states  []oracleCopy // states[i]: after history[:i]
}

// oracleCopy is an oracle and its expected epochs at one point of a
// history.
type oracleCopy struct {
	oracle *TrackerSet
	epochs map[VertexID]uint64
}

// copy returns a deep copy of c: the same graph and the same vectors, bit
// for bit.
func (c oracleCopy) copy(t *testing.T) oracleCopy {
	g := c.oracle.g.Clone()
	states := make([]*push.State, len(c.oracle.states))
	for i, st := range c.oracle.states {
		var err error
		if states[i], err = push.RestoreState(g, st.Source(), push.Config{Alpha: st.Alpha(), Epsilon: st.Epsilon()}, st.Estimates(), st.Residuals()); err != nil {
			t.Fatal(err)
		}
	}
	ts, err := newTrackerSet(g, c.oracle.opts, 1, c.oracle.Sources(), states, nil)
	if err != nil {
		t.Fatal(err)
	}
	return oracleCopy{ts, maps.Clone(c.epochs)}
}

// restore sets the run's oracle to a copy of c.
func (r *scenarioRun) restore(c oracleCopy) {
	c = c.copy(r.t)
	r.oracle, r.epochs = c.oracle, c.epochs
}

// record appends a copy of the run's oracle to log.
func (r *scenarioRun) record(log *oracleLog) {
	log.states = append(log.states, oracleCopy{r.oracle, r.epochs}.copy(r.t))
}

// sameOp reports whether two acknowledged mutations are the same.
func sameOp(a, b op) bool {
	return a.kind == b.kind && a.source == b.source && slices.Equal(a.batch, b.batch)
}

// invalid reports whether the Service must refuse a mutation, judged on the
// oracle: a refused mutation is neither journaled nor applied.
func (r *scenarioRun) invalid(o op) bool {
	_, tracked := r.epochs[o.source]
	n := r.oracle.g.NumVertices()
	switch o.kind {
	case opAdd:
		return tracked || o.source < 0 || int(o.source) >= n+MaxVertexGrowth
	case opRemove:
		return !tracked
	case opBatch:
		for _, u := range o.batch {
			if int(u.U) >= n+MaxVertexGrowth || int(u.V) >= n+MaxVertexGrowth {
				return true
			}
		}
	}
	return false
}

// mutate runs a mutation through call and acknowledges it into the oracle,
// or demands its refusal when the oracle says it is invalid.
func (r *scenarioRun) mutate(o op, fn func() error) (applied int, acked bool) {
	r.t.Helper()
	err := r.call(fn)
	if r.invalid(o) {
		if err == nil {
			r.t.Fatalf("%v %d accepted, want it refused", o.kind, o.source)
		}
		return 0, false
	}
	if err != nil {
		r.t.Fatalf("%v: %v", o.kind, err)
	}
	return r.ack(o), true
}

// call runs fn, re-offering it while persistence is degraded: a mutation
// rejected then has no effect, so the retry is exact.
func (r *scenarioRun) call(fn func() error) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := fn()
		if err == nil || r.in == nil || !errors.Is(err, ErrPersistenceDegraded) || time.Now().After(deadline) {
			return err
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (r *scenarioRun) step(o op) {
	t, svc := r.t, r.svc
	t.Helper()
	switch o.kind {
	case opBatch:
		var res BatchResult
		applied, acked := r.mutate(o, func() (err error) { res, err = svc.ApplyBatch(o.batch); return err })
		if acked && res.Applied != applied {
			t.Fatalf("batch applied %d updates, the oracle %d", res.Applied, applied)
		}
	case opAdd:
		r.mutate(o, func() error { return svc.UpdateSources(context.Background(), []VertexID{o.source}, nil) })
	case opRemove:
		r.mutate(o, func() error { return svc.UpdateSources(context.Background(), nil, []VertexID{o.source}) })
	case opCheckpoint:
		if r.dir == "" {
			return
		}
		if err := r.call(func() error { _, err := svc.Checkpoint(); return err }); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
	case opCompactNow:
		if err := svc.CompactNow(); err != nil {
			t.Fatal(err)
		}
	case opCompactBegin:
		if err := pipelineDo(svc, func() error { r.comp = svc.g.BeginCompaction(); return nil }); err != nil {
			t.Fatal(err)
		}
	case opCompactInstall:
		if c := r.comp; c != nil {
			base := c.Build()
			if err := pipelineDo(svc, func() error { svc.g.Install(c, base); return nil }); err != nil {
				t.Fatal(err)
			}
			r.comp = nil
		}
	case opRestart:
		r.restart(o.pool, o.cut)
	case opFault:
		if r.in != nil {
			r.in.Add(o.rule)
		}
	case opCold:
		for i := 0; i < max(o.reads, 1) && svc.od != nil; i++ {
			if _, tracked := r.epochs[o.source]; tracked {
				break
			}
			e, qi, err := svc.onDemandQuery(context.Background(), o.source)
			if err != nil {
				t.Fatalf("cold read of %d: %v", o.source, err)
			}
			r.cold = append(r.cold, coldAnswer{e, qi})
			r.mirrorPromotion()
		}
	}
}

// mirrorPromotion mirrors what a cold read did to the source set: a
// promotion is an addition at the current generation, an eviction a removal
// — in that order, as maybePromote journals them.
func (r *scenarioRun) mirrorPromotion() {
	got := r.svc.Sources()
	table := *r.svc.table.Load()
	for _, v := range got {
		if _, ok := r.epochs[v]; !ok {
			if !table[v].auto.Load() {
				r.t.Fatalf("source %d appeared without the promotion mark", v)
			}
			r.ack(addOp(v))
		}
	}
	for _, v := range r.oracleSources() {
		if !slices.Contains(got, v) {
			r.ack(removeOp(v))
		}
	}
}

func (r *scenarioRun) oracleSources() []VertexID {
	s := r.oracle.Sources()
	slices.Sort(s)
	return s
}

// restart crashes the Service, optionally cuts its WAL at cut bytes
// (rewinding the oracle to the mutations that survive), and recovers at pool
// workers.
func (r *scenarioRun) restart(pool int, cut int64) {
	if r.dir == "" {
		return
	}
	r.crash()
	if n := r.cutWAL(cut); n < len(r.history) {
		r.history = r.history[:n]
		r.resetOracle()
	}
	r.recoverAt(pool)
}

// crash closes the Service and checks that its journal holds exactly the
// acknowledged mutations past its last checkpoint.
func (r *scenarioRun) crash() {
	t := r.t
	t.Helper()
	if r.in != nil {
		// Faults are for mutations: a rule that has not fired yet must not
		// break the boot.
		waitPersistState(t, r.svc, PersistHealthy)
		r.in.Clear()
	}
	covered := int(r.svc.Stats().Persistence.LastCheckpointLSN)
	if err := r.svc.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, _, err := wal.ScanFile(walPath(r.dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.history) != covered+len(recs) {
		t.Fatalf("journal holds %d records past LSN %d, want the %d acknowledged since",
			len(recs), covered, len(r.history)-covered)
	}
	for i, rec := range recs {
		m := r.history[covered+i]
		want := map[opKind]wal.RecordType{opBatch: wal.RecordBatch, opAdd: wal.RecordAddSource, opRemove: wal.RecordRemoveSource}[m.kind]
		if rec.LSN != uint64(covered+i) || rec.Type != want || (m.kind != opBatch && rec.Source != m.source) {
			t.Fatalf("journal record %d is %+v, want the acknowledged %v %d", covered+i, rec, m.kind, m.source)
		}
	}
}

// cutWAL truncates a crashed run's WAL at cut bytes when the cut falls
// inside it, and returns how many acknowledged mutations survive: those the
// checkpoint covers and the records that end by the cut.
func (r *scenarioRun) cutWAL(cut int64) int {
	t := r.t
	t.Helper()
	_, recs, size, err := wal.ScanFile(walPath(r.dir))
	if err != nil {
		t.Fatal(err)
	}
	if cut < 0 || cut >= size {
		return len(r.history)
	}
	kept := 0
	for _, rec := range recs {
		if rec.Offset+int64(rec.EncodedLen) <= cut {
			kept++
		}
	}
	if err := os.Truncate(walPath(r.dir), cut); err != nil {
		t.Fatal(err)
	}
	return len(r.history) - len(recs) + kept // crash checked the records are the history's last
}

// recoverAt recovers a crashed run at pool workers.
func (r *scenarioRun) recoverAt(pool int) {
	t := r.t
	t.Helper()
	r.so.PoolWorkers = pool
	rec, err := NewServiceFromRecovery(r.so, r.po)
	if err != nil {
		t.Fatalf("recovery of %d acknowledged mutations: %v", len(r.history), err)
	}
	r.svc, r.comp = rec, nil
	if _, err := ckpt.LoadFileFS(faultfs.OS, checkpointPath(r.dir)); err != nil {
		t.Fatalf("checkpoint undecodable after a restart: %v", err)
	}
}

// fork copies a crashed run for t, with the copy's WAL cut at cut bytes (a
// cut < 0 keeps it whole): a copy of the data directory, and the history and
// oracle rewound to the mutations that survive the cut, ready for recoverAt.
// The crashed run is left as it was, so it can be forked again.
func (r *scenarioRun) fork(t *testing.T, cut int64) *scenarioRun {
	t.Helper()
	f := *r
	f.t, f.dir = t, filepath.Join(t.TempDir(), "data")
	f.po.Dir = f.dir
	if err := os.CopyFS(f.dir, os.DirFS(r.dir)); err != nil {
		t.Fatal(err)
	}
	n := f.cutWAL(cut)
	f.history, f.cold = slices.Clone(r.history[:n]), nil
	f.resetOracle()
	t.Cleanup(func() { f.svc.Close() })
	return &f
}

// checkServing is the serving contract, checked after every op:
//
//  1. the source set equals the oracle's;
//  2. each source's published estimates and live residuals are
//     bit-identical to the oracle's, at the expected epoch, converged;
//  3. Equation 2 holds on every live state (InvariantError ≤ 1e-9);
//  4. Top-k equals the oracle's ranking bit for bit, through the index
//     (k = 10) and the scan fallback (k = DefaultTopKCap+1);
//  5. the graph is consistent and holds the oracle's edges;
//  6. every cold answer the op read is bit-identical to the cold kernel on
//     the oracle's graph and, on at most 500 vertices, within its
//     advertised ε of power iteration;
//  7. (restart) the checkpoint on disk decodes.
//
// A persistent Service must also have journaled exactly the acknowledged
// mutations. Checks 2–5 read pipeline-owned state, so they run as one
// pipeline task.
func (r *scenarioRun) checkServing(tag string) {
	t := r.t
	t.Helper()
	if got, want := r.svc.Sources(), r.oracleSources(); !slices.Equal(got, want) {
		t.Fatalf("%s: sources %v, oracle %v", tag, got, want)
	}
	if r.dir != "" {
		if lsn := r.svc.Stats().Persistence.NextLSN; lsn != uint64(len(r.history)) {
			t.Fatalf("%s: %d mutations journaled, %d acknowledged", tag, lsn, len(r.history))
		}
	}
	if err := pipelineDo(r.svc, r.checkLive); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	for _, a := range r.cold {
		if err := r.checkCold(a); err != nil {
			t.Fatalf("%s: cold read of %d: %v", tag, a.e.source, err)
		}
	}
	r.cold = r.cold[:0]
}

// checkLive runs checks 2–5 on the pipeline goroutine. Snapshots are read
// through their slots rather than the public reads, so checking never
// refreshes a promoted source's recency.
func (r *scenarioRun) checkLive() error {
	g, og := r.svc.g, r.oracle.g
	if err := g.CheckConsistency(); err != nil {
		return err
	}
	if g.NumVertices() != og.NumVertices() || !slices.Equal(g.Edges(), og.Edges()) {
		return fmt.Errorf("graph of %d vertices, %d edges diverged from the oracle's %d, %d",
			g.NumVertices(), g.NumEdges(), og.NumVertices(), og.NumEdges())
	}
	table := *r.svc.table.Load()
	for i, s := range r.oracle.Sources() {
		want := r.oracle.states[i]
		src := table[s]
		snap := src.slot.Acquire()
		est, info := snap.Estimates(), snapshotInfo(snap)
		tops := [][]VertexScore{snap.AppendTopK(nil, 10), snap.AppendTopK(nil, push.DefaultTopKCap+1)}
		snap.Release()
		wantEst := want.Estimates()
		switch {
		case !bitsEqual(est, wantEst):
			return fmt.Errorf("source %d: published estimates differ from the oracle's", s)
		case !bitsEqual(src.st.Residuals(), want.Residuals()):
			return fmt.Errorf("source %d: residuals differ from the oracle's", s)
		case info.Epoch != r.epochs[s] || !info.Converged():
			return fmt.Errorf("source %d: snapshot %+v, want epoch %d, converged", s, info, r.epochs[s])
		}
		if e := src.st.InvariantError(); e > 1e-9 {
			return fmt.Errorf("source %d: Equation 2 violated by %g", s, e)
		}
		for _, top := range tops {
			if wantTop := push.AppendTopK(nil, wantEst, len(top)); !sameRanking(top, wantTop) {
				return fmt.Errorf("source %d: top-%d differs from the oracle's", s, len(top))
			}
		}
	}
	return nil
}

// checkCold is check 6 for one cold answer.
func (r *scenarioRun) checkCold(a coldAnswer) error {
	e, qi := a.e, a.qi
	g := r.oracle.g
	n := g.NumVertices()
	alpha := r.so.Options.Alpha
	if !qi.Approx || qi.Snapshot.Vertices != n {
		return fmt.Errorf("answer %+v, want an approximate one over %d vertices", qi, n)
	}
	if int(e.source) >= n {
		if !e.isolated || !bitsEqual(e.vals, []float64{alpha}) {
			return fmt.Errorf("a source outside the graph must be answered α exactly")
		}
		return nil
	}
	cfg := push.Config{Alpha: alpha, Epsilon: r.svc.od.opts.Epsilon}
	want, err := push.ColdPushBounded(g.View(), e.source, cfg, odMaxPushes)
	if err != nil {
		return err
	}
	if !slices.Equal(e.ids, want.Vertices) || !bitsEqual(e.vals, want.Estimates) ||
		!bitsEqual([]float64{e.eps, qi.Snapshot.Epsilon}, []float64{want.MaxResidual, want.MaxResidual}) {
		return fmt.Errorf("answer differs from the cold kernel on the oracle's graph")
	}
	if n > 500 {
		return nil
	}
	exact, err := power.ReverseGraph(g, e.source, power.Options{Alpha: alpha, Tolerance: 1e-13, MaxIterations: 100_000})
	if err != nil {
		return err
	}
	const slack = 1e-12 // the power iteration's own error
	for v, x := range exact {
		if d := math.Abs(push.SparseValue(e.ids, e.vals, VertexID(v)) - x); d > qi.Snapshot.Epsilon+slack {
			return fmt.Errorf("vertex %d: off by %g from power iteration, advertised ε %g", v, d, qi.Snapshot.Epsilon)
		}
	}
	return nil
}

// bitsEqual compares two float64 vectors for exact bit equality.
func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// sameRanking compares two rankings vertex for vertex and score bit for bit.
func sameRanking(a, b []VertexScore) bool {
	return slices.EqualFunc(a, b, func(x, y VertexScore) bool {
		return x.Vertex == y.Vertex && math.Float64bits(x.Score) == math.Float64bits(y.Score)
	})
}

// windowWorkload slides a window over cfg's edges, shuffled with seed
// cfg.Seed+12: half of them form the initial graph, and each batch inserts
// slide arriving edges and deletes as many expiring ones.
func windowWorkload(t *testing.T, cfg SyntheticConfig, batches, slide int) ([]Edge, []Batch) {
	t.Helper()
	window, initial := NewSlidingWindow(NewStream(generate(t, cfg), cfg.Seed+12), 0.5)
	out := make([]Batch, batches)
	for i := range out {
		if out[i] = window.Slide(slide); len(out[i]) == 0 {
			t.Fatalf("stream exhausted after %d batches", i)
		}
	}
	return initial, out
}

// recoveryGraph is the R-MAT graph the persistence scenarios slide a window
// over.
func recoveryGraph(vertices, edges int) SyntheticConfig {
	return SyntheticConfig{Model: ModelRMAT, Vertices: vertices, Edges: edges, Seed: 11}
}

// deleteHeavyStream builds batches in which three updates in four delete a
// present edge (while one is left) and the rest insert a universe edge: the
// workload that grows tombstone-shaped deltas fastest while every batch
// touches a small part of the graph.
func deleteHeavyStream(universe, present []Edge, seed int64, batches, size int) []Batch {
	rng := rand.New(rand.NewSource(seed))
	present = slices.Clone(present)
	out := make([]Batch, batches)
	for b := range out {
		for range size {
			if len(present) > 0 && rng.Intn(4) != 0 {
				j := rng.Intn(len(present))
				e := present[j]
				present[j] = present[len(present)-1]
				present = present[:len(present)-1]
				out[b] = append(out[b], Update{U: e.U, V: e.V, Op: Delete})
			} else {
				e := universe[rng.Intn(len(universe))]
				out[b] = append(out[b], Update{U: e.U, V: e.V, Op: Insert})
				present = append(present, e)
			}
		}
	}
	return out
}

// generate returns cfg's synthetic edge list.
func generate(t *testing.T, cfg SyntheticConfig) []Edge {
	t.Helper()
	edges, err := GenerateEdges(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return edges
}

// TestServiceMatchesTracker: whoever pushes which source (PoolWorkers 1: the
// pipeline pushes all of them; 2: a count that does not divide the sources;
// 7: more workers than sources) and whatever Options.Engine and Parallelism
// the caller passed — the service takes no engine choice — the service
// publishes the oracle's bits. A source is added and another removed between
// batches, so an engine also outlives and predates the states it runs.
func TestServiceMatchesTracker(t *testing.T) {
	edges := generate(t, SyntheticConfig{Model: ModelRMAT, Vertices: 150, Edges: 900, Seed: 7})
	initial, extra := edges[:600], edges[600:]
	batches := make([]Batch, 3)
	for i, e := range extra {
		op := Insert
		if i%5 == 4 {
			e, op = initial[i], Delete // an edge of the initial graph
		}
		b := i * len(batches) / len(extra)
		batches[b] = append(batches[b], Update{U: e.U, V: e.V, Op: op})
	}
	top := GraphFromEdges(initial).TopDegreeVertices(6)
	sources, added, removed := top[:5], top[5], top[1]
	for _, tc := range []struct {
		name        string
		pool        int
		engine      EngineKind
		parallelism int
	}{
		{"pool=1", 1, EngineParallel, 1},
		{"pool=3", 3, EngineDeterministic, 4},
		{"pool=2", 2, EngineSequential, 0},
		{"pool=7", 7, EngineParallel, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := runScenario(t, scenario{
				initial: initial, sources: sources, epsilon: 1e-5,
				pool: tc.pool, engine: tc.engine, parallelism: tc.parallelism,
				ops: []op{batchOp(batches[0]), addOp(added), batchOp(batches[1]), removeOp(removed), batchOp(batches[2])},
			})
			if got := r.svc.Options().Options.Engine; got != EngineSequential {
				t.Fatalf("service given %v reports engine %v", tc.engine, got)
			}
			if _, _, err := r.svc.EstimatesInfo(removed); !errors.Is(err, ErrUnknownSource) {
				t.Fatalf("removed source still served: %v", err)
			}
		})
	}
}

// TestCompactionDifferential is the storage engine's bit-identity gate. On
// few vertices with long adjacency lists every touched vertex copies its
// whole list into a delta segment, so the streams cross the graph's own
// compaction threshold several times and background merges race the write
// pipeline. A reference run at the other pool size compacts after every
// batch instead, and once freezes a compaction by hand across a batch, so
// its install must keep the segments written after the freeze. Both runs
// are checked against the oracle after every op, and their checkpoints must
// be byte-identical.
func TestCompactionDifferential(t *testing.T) {
	cfg := SyntheticConfig{Model: ModelErdosRenyi, Vertices: 1000, Edges: 60000, Seed: 5}
	universe := generate(t, cfg)
	windowInitial, window := windowWorkload(t, cfg, 20, 300)
	streams := []struct {
		name    string
		initial []Edge
		stream  []Batch
		oracles *oracleLog // one history for all four runs
	}{
		{"delete-heavy", universe[:30000], deleteHeavyStream(universe, universe[:30000], 99, 20, 300), new(oracleLog)},
		{"sliding-window", windowInitial, window, new(oracleLog)},
	}
	for _, par := range []int{1, 4} {
		for _, st := range streams {
			t.Run(fmt.Sprintf("%s/par=%d", st.name, par), func(t *testing.T) {
				sc := scenario{
					initial: st.initial, sources: GraphFromEdges(st.initial).TopDegreeVertices(3),
					epsilon: 1e-5, pool: par, persist: true, ops: batchOps(st.stream...), oracles: st.oracles,
				}
				on := runScenario(t, sc)
				// Every threshold crossing starts a merge: the installed ones
				// count as compactions, and at most one is still in flight.
				storage := on.svc.Stats().Storage
				crossings := storage.Compactions
				if storage.CompactionInFlight {
					crossings++
				}
				if crossings < 2 || crossings >= int64(len(st.stream)) {
					t.Fatalf("compacting run crossed its threshold %d times over %d batches, want at least 2 and fewer than one per batch",
						crossings, len(st.stream))
				}

				ref := sc
				ref.pool, ref.ops = 5-par, nil
				for i, b := range st.stream {
					if i == 5 {
						ref.ops = append(ref.ops, op{kind: opCompactBegin}, batchOp(b), op{kind: opCompactInstall})
					} else {
						ref.ops = append(ref.ops, batchOp(b), op{kind: opCompactNow})
					}
				}
				off := runScenario(t, ref)
				on.run(op{kind: opCheckpoint})
				off.run(op{kind: opCheckpoint})
				fOn, errOn := os.ReadFile(checkpointPath(on.dir))
				fOff, errOff := os.ReadFile(checkpointPath(off.dir))
				if err := errors.Join(errOn, errOff); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(fOn, fOff) {
					t.Fatal("checkpoints diverged: compaction is not state-invisible")
				}
			})
		}
	}
}

// sparseWorkload is a stream shaped so that batches touch a small part of
// the graph, with the sources it is run for.
type sparseWorkload struct {
	name    string
	initial []Edge
	sources []VertexID
	stream  []Batch
}

// sparseWorkloads are shapes sized so that batches touch a small part of
// the graph: publication takes the delta path and the incrementally
// maintained Top-K index is exercised, which the small scenarios never do.
// Each stream ends in a delete burst that cuts every in-edge of the
// sources: their estimates elsewhere collapse, which sinks more indexed
// entries than the index's slack absorbs, so it is rebuilt mid-stream.
func sparseWorkloads(t *testing.T) []sparseWorkload {
	universe := generate(t, SyntheticConfig{Model: ModelBarabasiAlbert, Vertices: 2000, Edges: 12000, Seed: 71})
	windowInitial, window := windowWorkload(t, SyntheticConfig{Model: ModelRMAT, Vertices: 8000, Edges: 48000, Seed: 73}, 12, 30)
	ws := []sparseWorkload{
		{name: "delete-heavy", initial: universe, stream: deleteHeavyStream(universe, universe, 72, 8, 60)},
		{name: "sliding-window", initial: windowInitial, stream: window},
	}
	for i := range ws {
		ws[i].sources = GraphFromEdges(ws[i].initial).TopDegreeVertices(3)
		ws[i].stream = append(ws[i].stream, deleteBurst(ws[i].initial, ws[i].stream, ws[i].sources))
	}
	return ws
}

// deleteBurst returns one batch deleting every in-edge of the sources that
// initial and stream leave behind.
func deleteBurst(initial []Edge, stream []Batch, sources []VertexID) Batch {
	g := GraphFromEdges(initial)
	for _, b := range stream {
		for _, u := range b {
			if u.Op == Insert {
				g.AddEdge(u.U, u.V)
			} else {
				g.RemoveEdge(u.U, u.V)
			}
		}
	}
	var burst Batch
	for _, s := range sources {
		for _, u := range g.InNeighbors(s) {
			burst = append(burst, Update{U: u, V: s, Op: Delete})
		}
	}
	return burst
}

// requireSparsePaths asserts the delta publication path carried traffic and
// the Top-K index was rebuilt during the stream, not only at cold start —
// otherwise the scenario silently degrades to testing full copies.
func requireSparsePaths(t *testing.T, r *scenarioRun) {
	t.Helper()
	var delta, rebuilds, coldRebuilds uint64
	for _, ss := range r.svc.Stats().Sources {
		delta += ss.DeltaPublishes
		rebuilds += ss.TopKRebuilds
	}
	for _, ss := range r.boot.Sources {
		coldRebuilds += ss.TopKRebuilds
	}
	if delta == 0 {
		t.Fatal("delta publication path never engaged")
	}
	if rebuilds <= coldRebuilds {
		t.Fatalf("Top-K index rebuilt %d times, all at cold start", rebuilds)
	}
}

// TestSparseServingDifferential: on the sparse shapes, at PoolWorkers 1 and
// 4, delta-published snapshots and the incremental Top-K index stay
// bit-identical to the oracle after every batch.
func TestSparseServingDifferential(t *testing.T) {
	for _, w := range sparseWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			for _, pool := range []int{1, 4} {
				t.Run(fmt.Sprintf("parallelism=%d", pool), func(t *testing.T) {
					requireSparsePaths(t, runScenario(t, scenario{
						initial: w.initial, sources: w.sources,
						epsilon: 1e-4, pool: pool, ops: batchOps(w.stream...),
					}))
				})
			}
		})
	}
}

// TestSparseServingAcrossRecovery: a persistent service on the delete-heavy
// shape is checkpointed mid-stream, restarted at the other pool size, and
// written to again. A restored state has no delta history to trust, so its
// first publications must be full copies.
func TestSparseServingAcrossRecovery(t *testing.T) {
	w := sparseWorkloads(t)[0]
	half := len(w.stream) / 2
	for _, pool := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", pool), func(t *testing.T) {
			r := runScenario(t, scenario{
				initial: w.initial, sources: w.sources,
				epsilon: 1e-4, pool: pool, persist: true,
				ops: slices.Concat(batchOps(w.stream[:half]...), []op{{kind: opCheckpoint}}, batchOps(w.stream[half:]...)),
			})
			requireSparsePaths(t, r)
			r.run(restartOp(5-pool, -1))
			for _, ss := range r.svc.Stats().Sources {
				if ss.FullPublishes == 0 {
					t.Fatalf("recovered source %d reseeded without a full publish", ss.Source)
				}
			}
			r.run(batchOp(w.stream[len(w.stream)-1]))
		})
	}
}

// TestCrashRecoveryDifferential is the acceptance test of the persistence
// subsystem: a stream with a mid-stream checkpoint and source churn is
// journaled, the WAL is cut at every record boundary and at torn positions
// inside records (mid-frame, mid-payload, one byte short), and each cut is
// recovered at the other pool size — restoring epochs above 1 from the
// checkpoint — checked against the oracle rewound to the surviving records,
// and driven through the lost rest of the stream. The journaled run is
// bit-deterministic, so it is run and checked once per pool size; each cut
// recovers a copy of its data directory.
func TestCrashRecoveryDifferential(t *testing.T) {
	initial, stream := windowWorkload(t, recoveryGraph(400, 4000), 8, 25)
	top := GraphFromEdges(initial).TopDegreeVertices(3)
	head := batchOps(stream[:4]...)
	// tail is journaled after the checkpoint, one WAL record per op.
	tail := []op{batchOp(stream[4]), addOp(top[2]), batchOp(stream[5]), removeOp(top[0]), batchOp(stream[6]), batchOp(stream[7])}
	ops := slices.Concat(head, []op{{kind: opCheckpoint}}, tail)
	oracles := new(oracleLog) // the forks rewind and replay the journaled history
	for _, pool := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", pool), func(t *testing.T) {
			journaled := runScenario(t, scenario{initial: initial, sources: top[:2], epsilon: 1e-5, pool: pool, persist: true, ops: ops, oracles: oracles})
			journaled.crash()
			_, recs, size, err := wal.ScanFile(walPath(journaled.dir))
			if err != nil {
				t.Fatal(err)
			}
			cuts := []int64{-1, 0, 9, size} // whole; torn away; torn header; at the end
			for _, rec := range recs {
				end := rec.Offset + int64(rec.EncodedLen)
				cuts = append(cuts, rec.Offset, rec.Offset+3, rec.Offset+10, end-1, end)
			}
			for _, cut := range cuts {
				r := journaled.fork(t, cut)
				r.recoverAt(5 - pool)
				r.checkServing(fmt.Sprintf("recovery at a %d-byte cut", cut))
				// Replay what the cut lost: the oracle kept the head and the
				// surviving records.
				r.run(tail[len(r.history)-len(head):]...)
			}
		})
	}
}

// TestRecoveryWithCheckpointAndSourceChurn exercises every record type
// across restarts: batches, a checkpoint mid-stream (rotating the WAL), a
// source added and another removed. A restart that replays records must
// re-checkpoint, a clean one must not, and a crash that tears the rotated
// WAL after its first record recovers exactly that prefix.
func TestRecoveryWithCheckpointAndSourceChurn(t *testing.T) {
	initial, stream := windowWorkload(t, recoveryGraph(300, 3000), 9, 20)
	sources := GraphFromEdges(initial).TopDegreeVertices(2)
	extra := VertexID(0) // some vertex distinct from the initial sources
	for slices.Contains(sources, extra) {
		extra++
	}
	ops := slices.Concat(batchOps(stream[:3]...), []op{addOp(extra)}, batchOps(stream[3:5]...),
		[]op{{kind: opCheckpoint}}, batchOps(stream[5:7]...), []op{removeOp(sources[0])}, batchOps(stream[7:]...))
	sc := scenario{initial: initial, sources: sources, epsilon: 1e-5, pool: 2, persist: true, ops: ops}

	r := runScenario(t, sc)
	_, recs, _, err := wal.ScanFile(walPath(r.dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []int64{1, 0} {
		r.run(restartOp(2, -1))
		if got := r.svc.Stats().Persistence.Checkpoints; got != want {
			t.Fatalf("restart wrote %d checkpoints, want %d (only a replay re-checkpoints)", got, want)
		}
	}

	torn := sc
	torn.ops = append(ops, restartOp(2, recs[1].Offset))
	runScenario(t, torn)
}

// TestChaosDifferential is the proof obligation of degraded-mode
// persistence. A fault-free run of a stream with a mid-stream checkpoint
// counts its fault-eligible write operations; then, once per operation
// index n, the run repeats with a one-shot fault at exactly the n-th
// operation — an outright failure on even indexes, a torn write on odd
// ones. The service degrades, the probe heals it, rejected mutations are
// re-offered, and the oracle checks hold after every op; then the service
// must be healthy with the episode accounted, the checkpoint on disk must
// decode, and a recovery at the other pool size must check out too.
func TestChaosDifferential(t *testing.T) {
	initial, stream := windowWorkload(t, recoveryGraph(250, 2500), 5, 20)
	oracles := new(oracleLog) // every run acknowledges the same mutations
	for _, pool := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", pool), func(t *testing.T) {
			sc := scenario{
				initial: initial, sources: GraphFromEdges(initial).TopDegreeVertices(2),
				epsilon: 1e-5, pool: pool, faults: true, oracles: oracles,
				ops: slices.Concat(batchOps(stream[:3]...), []op{{kind: opCheckpoint}}, batchOps(stream[3:]...)),
			}
			calm := runScenario(t, sc)
			faultable := calm.in.Ops() - calm.bootOps
			if faultable < int64(2*len(stream)) {
				t.Fatalf("workload exercised only %d write operations; the sweep would be vacuous", faultable)
			}
			for n := int64(1); n <= faultable; n++ {
				t.Run(fmt.Sprintf("op=%d", n), func(t *testing.T) {
					rule := faultfs.Rule{Op: faultfs.OpAny, Nth: int(n)}
					if n%2 == 1 {
						rule.Mode, rule.Partial = faultfs.ModePartial, 7
					}
					chaos := sc
					chaos.ops = append([]op{{kind: opFault, rule: rule}}, sc.ops...)
					r := runScenario(t, chaos)
					if h := waitPersistState(t, r.svc, PersistHealthy); h.Err != "" {
						t.Fatalf("healthy service still carries error %q", h.Err)
					}
					st := r.svc.Stats().Persistence
					if st.ProbeSuccesses < 1 || st.DegradedSeconds <= 0 {
						t.Fatalf("fault at op %d not accounted: %d probe attempts, %d successes, %gs degraded",
							n, st.ProbeAttempts, st.ProbeSuccesses, st.DegradedSeconds)
					}
					// Torn-temp invariant: whatever the fault did, the
					// checkpoint path holds a complete, decodable checkpoint.
					if _, err := ckpt.LoadFileFS(faultfs.OS, checkpointPath(r.dir)); err != nil {
						t.Fatalf("checkpoint on disk undecodable after a healed episode: %v", err)
					}
					r.run(restartOp(5-pool, -1))
				})
			}
		})
	}
}

// TestOnDemandDifferentialVsOracle: cold answers for untracked sources match
// the cold kernel on the oracle's graph bit for bit and power iteration
// within their advertised ε — repeated (a cache hit), after a live batch
// (which forces a new view), and after a source beyond the graph grows it
// (which must invalidate every cached answer).
func TestOnDemandDifferentialVsOracle(t *testing.T) {
	const vertices = 400
	edges := odRingEdges(vertices, 3000, 21)
	tracked := GraphFromEdges(edges).TopDegreeVertices(2)
	var probes []op
	for _, v := range []VertexID{3, 57, 191, 202, 333} {
		if !slices.Contains(tracked, v) {
			probes = append(probes, coldOp(v, 2))
		}
	}
	r := runScenario(t, scenario{
		initial: edges, sources: tracked, epsilon: 1e-6,
		onDemand: OnDemandOptions{Enabled: true, Epsilon: 1e-5},
		ops: slices.Concat(probes, []op{batchOp(Batch{
			{U: 7, V: 301, Op: Insert}, {U: 301, V: 9, Op: Insert},
			{U: 0, V: 1, Op: Delete}, {U: 55, V: 120, Op: Insert},
		})}, probes, []op{addOp(vertices + 3)}, probes[:1]),
	})
	st := r.svc.Stats().OnDemand
	if st.Queries == 0 || st.CacheHits == 0 || st.SnapshotBuilds < 3 {
		t.Fatalf("on-demand stats %+v: want queries, cache hits and a view per graph generation", st)
	}
	// A tracked source stays on the exact path.
	if _, qi, err := r.svc.QueryTopKCtx(context.Background(), tracked[0], 5); err != nil || qi.Approx {
		t.Fatalf("tracked QueryTopKCtx: err=%v approx=%v", err, qi.Approx)
	}
	// After Close, a cold read that needs a fresh view fails, never hangs.
	r.run(addOp(vertices + 4))
	r.svc.Close()
	if _, _, err := r.svc.QueryTopKCtx(context.Background(), probes[0].source, 5); !errors.Is(err, ErrServiceClosed) {
		t.Fatalf("cold read after Close: %v, want ErrServiceClosed", err)
	}
}

// fuzzVertices is the size of FuzzScenario's graph: source and cold-read ids
// range up to fuzzVertices+7, so some grow the graph.
const fuzzVertices = 64

// decodeScenario turns fuzz input into a scenario over universe. The first
// byte picks the switches — bit 0 persistence, bit 1 faults, bit 2 the
// on-demand tier, bit 3 promotion (after 2 reads, one auto source), bits 4–5
// ε ∈ {1e-2, 1e-3, 1e-4, 1e-5}, bits 6–7 PoolWorkers 1–4 — the second the
// number of initial sources (1–3, by degree). The first three quarters of
// universe form the initial graph. Then up to 24 ops follow, each a kind
// byte and its arguments:
//
//	batch       count, then count updates of one byte each: bit 7
//	            deletes, the low 7 bits index universe
//	add/remove  vertex
//	cold        vertex, reads
//	restart     pool, cut: an even cut byte keeps the WAL whole, an odd one
//	            cuts it at 3×byte bytes
//	fault       kind and mode (bit 3: torn), then Nth (low nibble) and the
//	            torn length (high nibble)
func decodeScenario(universe []Edge, data []byte) scenario {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	flags, nsrc := next(), next()
	initial := universe[:len(universe)*3/4]
	sc := scenario{
		initial: initial,
		sources: GraphFromEdges(initial).TopDegreeVertices(1 + int(nsrc)%3),
		epsilon: []float64{1e-2, 1e-3, 1e-4, 1e-5}[flags>>4&3],
		pool:    1 + int(flags>>6),
		persist: flags&1 != 0,
		faults:  flags&2 != 0,
	}
	if flags&4 != 0 {
		sc.onDemand = OnDemandOptions{Enabled: true, Epsilon: 1e-3}
		if flags&8 != 0 {
			sc.onDemand.PromoteAfter, sc.onDemand.MaxAutoSources = 2, 1
		}
	}
	vertex := func() VertexID { return VertexID(int(next()) % (fuzzVertices + 8)) }
	for len(data) > 0 && len(sc.ops) < 24 {
		o := op{kind: opKind(next() % byte(numOpKinds))}
		switch o.kind {
		case opBatch:
			for range 1 + int(next())%8 {
				b := next()
				e := universe[int(b&127)%len(universe)]
				u := Update{U: e.U, V: e.V, Op: Insert}
				if b&128 != 0 {
					u.Op = Delete
				}
				o.batch = append(o.batch, u)
			}
		case opAdd, opRemove:
			o.source = vertex()
		case opCold:
			o.source, o.reads = vertex(), 1+int(next())%4
		case opRestart:
			o.pool, o.cut = 1+int(next())%4, -1
			if c := next(); c&1 != 0 {
				o.cut = 3 * int64(c)
			}
		case opFault:
			a, b := next(), next()
			o.rule = faultfs.Rule{Op: faultfs.Op(a % 7), Nth: 1 + int(b&15), Partial: int(b >> 4)}
			if a&8 != 0 {
				o.rule.Mode = faultfs.ModePartial
			}
		}
		sc.ops = append(sc.ops, o)
	}
	return sc
}

// FuzzScenario drives random op sequences over a fixed R-MAT graph through
// the scenario harness: every decoded scenario must pass checkServing after
// every op. The corpus under testdata/fuzz/FuzzScenario holds one entry per
// op kind and the trigger sequences of five one-line serving-path defects:
// a delta publication that skips the previous dirty set, a recovery that
// does not seed epochs, an unjournaled removal, a graph growth that keeps
// cached cold answers, and a compaction install that drops segments written
// after its freeze.
func FuzzScenario(f *testing.F) {
	universe, err := GenerateEdges(SyntheticConfig{Model: ModelRMAT, Vertices: fuzzVertices, Edges: 128, Seed: 31})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runScenario(t, decodeScenario(universe, data))
	})
}
