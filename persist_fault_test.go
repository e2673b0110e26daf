package dynppr

// Degraded-mode persistence tests: transient storage faults must degrade the
// write path (reads keep serving, mutations rejected with zero partial
// effect) and self-heal via the recovery probe; permanent faults and
// exhausted probe budgets must fail persistence instead of probing forever.

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"dynppr/internal/faultfs"
)

// faultTestService boots a small persistent service through an injector with
// a fast probe cadence. It returns the service, the injector, the data dir,
// and the workload batches that remain to be applied.
func faultTestService(t *testing.T, po func(*PersistOptions)) (*Service, *faultfs.Injector, string, []VertexID, []Batch) {
	t.Helper()
	initial, stream := windowWorkload(t, recoveryGraph(150, 1200), 4, 15)
	opts := DefaultOptions()
	opts.Epsilon = 1e-4
	sources := GraphFromEdges(initial).TopDegreeVertices(2)
	in := faultfs.NewInjector(faultfs.OS)
	dir := filepath.Join(t.TempDir(), "data")
	p := PersistOptions{Dir: dir, Sync: SyncAlways, FS: in, ProbeBackoff: time.Millisecond}
	if po != nil {
		po(&p)
	}
	svc, err := NewPersistentService(GraphFromEdges(initial), sources,
		ServiceOptions{Options: opts, PoolWorkers: 1}, p)
	if err != nil {
		t.Fatal(err)
	}
	return svc, in, dir, sources, stream
}

func waitPersistState(t *testing.T, svc *Service, want PersistState) PersistenceHealth {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		h, ok := svc.PersistenceHealth()
		if !ok {
			t.Fatal("service has no persistence")
		}
		if h.State == want {
			return h
		}
		if time.Now().After(deadline) {
			t.Fatalf("persistence stuck in %v (err %q), want %v", h.State, h.Err, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTransientFaultDegradesThenSelfHeals is the core state-machine cycle:
// HEALTHY -> (ENOSPC) -> DEGRADED (reads serve, writes shed, probe armed)
// -> HEALTHY again via the background probe, without a restart.
func TestTransientFaultDegradesThenSelfHeals(t *testing.T) {
	svc, in, _, sources, stream := faultTestService(t, nil)
	defer svc.Close()
	if _, err := svc.ApplyBatch(stream[0]); err != nil {
		t.Fatal(err)
	}
	preFault, _, err := svc.EstimatesInfo(sources[0])
	if err != nil {
		t.Fatal(err)
	}

	in.Add(faultfs.Rule{Op: faultfs.OpWrite, Path: "wal"})
	_, err = svc.ApplyBatch(stream[1])
	if !errors.Is(err, ErrPersistenceDegraded) {
		t.Fatalf("mutation under fault: got %v, want ErrPersistenceDegraded", err)
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("rejection does not carry the classified cause: %v", err)
	}

	// Zero partial effect: the rejected batch changed nothing.
	if got, _, _ := svc.EstimatesInfo(sources[0]); !bitsEqual(got, preFault) {
		t.Fatal("rejected mutation left a partial effect on served estimates")
	}
	// Reads keep serving while degraded.
	if h, _ := svc.PersistenceHealth(); h.State == PersistDegraded {
		if _, _, err := svc.AppendTopK(nil, sources[0], 5); err != nil {
			t.Fatalf("read while degraded: %v", err)
		}
	}

	// The one-shot fault has fired; the probe heals on its own.
	h := waitPersistState(t, svc, PersistHealthy)
	if h.Err != "" {
		t.Fatalf("healthy state still carries error %q", h.Err)
	}
	// The rejected batch retries cleanly, and the rest of the stream lands.
	for _, b := range stream[1:] {
		if _, err := svc.ApplyBatch(b); err != nil {
			t.Fatalf("mutation after heal: %v", err)
		}
	}

	st := svc.Stats().Persistence
	if st.ProbeSuccesses < 1 {
		t.Fatalf("probe successes %d, want >= 1", st.ProbeSuccesses)
	}
	if st.ProbeAttempts < st.ProbeSuccesses {
		t.Fatalf("probe attempts %d < successes %d", st.ProbeAttempts, st.ProbeSuccesses)
	}
	if st.DegradedSeconds <= 0 {
		t.Fatal("degraded window not accounted in DegradedSeconds")
	}
	if st.Err != "" {
		t.Fatalf("healthy stats still carry failure %q", st.Err)
	}
}

// TestDegradedHealthReportsNextProbe: while degraded, PersistenceHealth must
// expose the time of the next probe (the Retry-After source) and the cause.
func TestDegradedHealthReportsNextProbe(t *testing.T) {
	svc, in, _, _, stream := faultTestService(t, func(p *PersistOptions) {
		p.ProbeBackoff = time.Hour // keep the probe pending while we look
	})
	defer svc.Close()
	in.Add(faultfs.Rule{Op: faultfs.OpWrite, Path: "wal"})
	if _, err := svc.ApplyBatch(stream[0]); !errors.Is(err, ErrPersistenceDegraded) {
		t.Fatalf("got %v", err)
	}
	h, _ := svc.PersistenceHealth()
	if h.State != PersistDegraded {
		t.Fatalf("state %v, want degraded", h.State)
	}
	if h.NextProbe <= 0 {
		t.Fatal("degraded health has no pending probe time")
	}
	if h.Err == "" {
		t.Fatal("degraded health does not report its cause")
	}
	// A second mutation is rejected without touching storage again.
	before := in.Ops()
	if _, err := svc.ApplyBatch(stream[1]); !errors.Is(err, ErrPersistenceDegraded) {
		t.Fatalf("got %v", err)
	}
	if in.Ops() != before {
		t.Fatal("a rejected-while-degraded mutation touched the filesystem")
	}
}

// TestManualCheckpointHealsDegraded: Checkpoint while degraded is an
// immediate, caller-visible recovery probe.
func TestManualCheckpointHealsDegraded(t *testing.T) {
	svc, in, _, _, stream := faultTestService(t, func(p *PersistOptions) {
		p.ProbeBackoff = time.Hour // the manual path must do the healing
	})
	defer svc.Close()
	if _, err := svc.ApplyBatch(stream[0]); err != nil {
		t.Fatal(err)
	}
	in.Add(faultfs.Rule{Op: faultfs.OpWrite, Path: "wal"})
	if _, err := svc.ApplyBatch(stream[1]); !errors.Is(err, ErrPersistenceDegraded) {
		t.Fatalf("got %v", err)
	}

	lsn, err := svc.Checkpoint()
	if err != nil {
		t.Fatalf("manual checkpoint while degraded: %v", err)
	}
	if h, _ := svc.PersistenceHealth(); h.State != PersistHealthy {
		t.Fatalf("state %v after manual heal, want healthy", h.State)
	}
	if want := uint64(1); lsn != want {
		t.Fatalf("healed checkpoint covers LSN %d, want %d (one acked batch)", lsn, want)
	}
	if _, err := svc.ApplyBatch(stream[1]); err != nil {
		t.Fatalf("mutation after manual heal: %v", err)
	}
}

// TestPermanentErrorFailsImmediately: EROFS-class errors skip the probe
// cycle entirely — probing cannot fix a read-only filesystem.
func TestPermanentErrorFailsImmediately(t *testing.T) {
	svc, in, _, sources, stream := faultTestService(t, nil)
	defer svc.Close()
	in.Add(faultfs.Rule{Op: faultfs.OpWrite, Path: "wal", Err: syscall.EROFS})
	if _, err := svc.ApplyBatch(stream[0]); !errors.Is(err, ErrPersistenceFailed) {
		t.Fatalf("got %v, want ErrPersistenceFailed", err)
	}
	h, _ := svc.PersistenceHealth()
	if h.State != PersistFailed {
		t.Fatalf("state %v, want failed", h.State)
	}
	if h.NextProbe != 0 {
		t.Fatal("failed persistence still schedules probes")
	}
	// Failure is terminal for writes but not for reads.
	if _, err := svc.ApplyBatch(stream[1]); !errors.Is(err, ErrPersistenceFailed) {
		t.Fatalf("second mutation: got %v", err)
	}
	if _, _, err := svc.AppendTopK(nil, sources[0], 5); err != nil {
		t.Fatalf("read after permanent failure: %v", err)
	}
	if _, err := svc.Checkpoint(); !errors.Is(err, ErrPersistenceFailed) {
		t.Fatalf("checkpoint after permanent failure: got %v", err)
	}
}

// TestProbeCapFailsPersistence: when the storage never heals, the probe
// budget runs out and the state machine lands in FAILED instead of probing
// forever.
func TestProbeCapFailsPersistence(t *testing.T) {
	svc, in, _, _, stream := faultTestService(t, func(p *PersistOptions) {
		p.ProbeMax = 2
	})
	defer svc.Close()
	// Every write-path op fails from here on: the probes cannot succeed.
	rule := in.Add(faultfs.Rule{Op: faultfs.OpAny, Times: -1})
	if _, err := svc.ApplyBatch(stream[0]); !errors.Is(err, ErrPersistenceDegraded) {
		t.Fatalf("got %v", err)
	}
	waitPersistState(t, svc, PersistFailed)
	st := svc.Stats().Persistence
	if st.ProbeAttempts < 2 {
		t.Fatalf("gave up after %d probe attempts, want the ProbeMax=2 budget spent", st.ProbeAttempts)
	}
	in.Disarm(rule) // storage "heals", but failed is terminal until restart
	if _, err := svc.ApplyBatch(stream[0]); !errors.Is(err, ErrPersistenceFailed) {
		t.Fatalf("mutation after terminal failure: got %v", err)
	}
}

// TestHealedStateRecoversFromDisk: after a degrade/heal cycle, the on-disk
// pair must reconstruct the exact served state — the heal's rotated WAL and
// re-written checkpoint are trusted by an actual recovery, not just by the
// probe's own verification.
func TestHealedStateRecoversFromDisk(t *testing.T) {
	svc, in, dir, sources, stream := faultTestService(t, nil)
	if _, err := svc.ApplyBatch(stream[0]); err != nil {
		t.Fatal(err)
	}
	in.Add(faultfs.Rule{Op: faultfs.OpWrite, Path: "wal", Mode: faultfs.ModePartial, Partial: 6})
	if _, err := svc.ApplyBatch(stream[1]); !errors.Is(err, ErrPersistenceDegraded) {
		t.Fatal("torn append did not degrade")
	}
	waitPersistState(t, svc, PersistHealthy)
	for _, b := range stream[1:] {
		if _, err := svc.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	want := make(map[VertexID][]float64, len(sources))
	for _, s := range sources {
		est, _, err := svc.EstimatesInfo(s)
		if err != nil {
			t.Fatal(err)
		}
		want[s] = est
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := NewServiceFromRecovery(ServiceOptions{Options: svc.opts.Options, PoolWorkers: 1},
		PersistOptions{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatalf("recovery after a healed episode: %v", err)
	}
	defer rec.Close()
	for _, s := range sources {
		got, _, err := rec.EstimatesInfo(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(got, want[s]) {
			t.Fatalf("source %d: recovered estimates differ from the healed live state", s)
		}
	}
}

// TestBootSweepsTmpLeftovers: a crash mid-degraded-episode can strand temp
// files; both boot paths must remove them.
func TestBootSweepsTmpLeftovers(t *testing.T) {
	svc, _, dir, _, stream := faultTestService(t, nil)
	if _, err := svc.ApplyBatch(stream[0]); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"checkpoint.tmp", "wal.log.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("stranded"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := NewServiceFromRecovery(ServiceOptions{Options: svc.opts.Options, PoolWorkers: 1},
		PersistOptions{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("boot left stranded temp file %s", e.Name())
		}
	}
}

// TestCloseLeaksNoGoroutines: a service owns exactly one goroutine, its
// pipeline — the goroutines a cold start or a batch lends sources to end with
// it, the on-demand tier starts none — and Close must take it plus whatever
// the recovery probe has in flight. A persistent
// write fault keeps the probe failing and re-arming its timer, so Close lands
// on an armed timer with tracked and cold reads just served. Goroutines are
// told apart by id, not counted: goroutines of earlier tests that exit
// meanwhile must neither hide a leak nor fail the check.
func TestCloseLeaksNoGoroutines(t *testing.T) {
	before := goroutineStacks()
	// started returns the stacks of the goroutines alive now that were not
	// alive before construction.
	started := func() map[string]string {
		now := goroutineStacks()
		for id := range before {
			delete(now, id)
		}
		return now
	}
	settle := func(what string, ok func(map[string]string) bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			fresh := started()
			if ok(fresh) {
				return
			}
			if time.Now().After(deadline) {
				stacks := make([]string, 0, len(fresh))
				for _, stack := range fresh {
					stacks = append(stacks, stack)
				}
				t.Fatalf("%d goroutines started since construction %s:\n%s",
					len(fresh), what, strings.Join(stacks, "\n\n"))
			}
		}
	}

	initial, stream := windowWorkload(t, recoveryGraph(150, 1200), 2, 15)
	opts := DefaultOptions()
	opts.Epsilon = 1e-4
	g := GraphFromEdges(initial)
	top := g.TopDegreeVertices(6)
	sources, cold := top[:2], top[2:]
	in := faultfs.NewInjector(faultfs.OS)
	svc, err := NewPersistentService(g, sources,
		ServiceOptions{Options: opts, OnDemand: OnDemandOptions{Enabled: true, Epsilon: 1e-3}},
		PersistOptions{Dir: filepath.Join(t.TempDir(), "data"), Sync: SyncAlways, FS: in, ProbeBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close() // no-op after the checked Close below
	settle("after construction", func(fresh map[string]string) bool {
		for _, stack := range fresh {
			return len(fresh) == 1 && strings.Contains(stack, "(*Service).pipeline")
		}
		return false
	})
	if _, err := svc.ApplyBatch(stream[0]); err != nil {
		t.Fatal(err)
	}
	in.Add(faultfs.Rule{Op: faultfs.OpWrite, Times: -1})
	if _, err := svc.ApplyBatch(stream[1]); !errors.Is(err, ErrPersistenceDegraded) {
		t.Fatalf("mutation under fault: got %v, want ErrPersistenceDegraded", err)
	}
	for _, s := range sources {
		if _, _, err := svc.AppendTopK(nil, s, 5); err != nil {
			t.Errorf("tracked read of %d: %v", s, err)
		}
	}
	for _, s := range cold {
		if _, _, err := svc.QueryTopKCtx(context.Background(), s, 5); err != nil {
			t.Errorf("cold read of %d: %v", s, err)
		}
	}
	// Degraded means a probe is scheduled or running: every failed probe
	// re-arms the timer, and the fault never clears.
	if h, _ := svc.PersistenceHealth(); h.State != PersistDegraded {
		t.Errorf("state %v at Close, want degraded", h.State)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	settle("after Close", func(fresh map[string]string) bool { return len(fresh) == 0 })
}

// goroutineStacks returns the stack of every live goroutine, keyed by its id.
// Ids are never reused within a process.
func goroutineStacks() map[string]string {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	stacks := make(map[string]string)
	for _, stack := range strings.Split(string(buf[:n]), "\n\n") {
		// Each stack opens with "goroutine <id> [<state>]:".
		id, _, _ := strings.Cut(strings.TrimPrefix(stack, "goroutine "), " ")
		stacks[id] = stack
	}
	return stacks
}

// TestPersistStateText pins the JSON spelling of every persistence state,
// which /stats carries, and rejects a name it does not know.
func TestPersistStateText(t *testing.T) {
	for st, want := range map[PersistState]string{
		PersistHealthy: `"healthy"`, PersistDegraded: `"degraded"`, PersistFailed: `"failed"`,
	} {
		b, err := json.Marshal(st)
		if err != nil || string(b) != want {
			t.Fatalf("marshal %v = %s, %v; want %s", st, b, err, want)
		}
		var got PersistState
		if err := json.Unmarshal(b, &got); err != nil || got != st {
			t.Fatalf("unmarshal %s = %v, %v", b, got, err)
		}
	}
	var st PersistState
	if err := json.Unmarshal([]byte(`"sideways"`), &st); err == nil {
		t.Fatal("unknown state name decoded without error")
	}
}
