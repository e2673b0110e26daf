package dynppr

// Chaos differential suite: the proof obligation of the degraded-mode
// persistence design. A deterministic workload (edge batches plus a manual
// mid-stream checkpoint) is first run fault-free through a faultfs.Injector
// to count its fault-eligible write operations; then, once per operation
// index n, the run repeats with a one-shot fault scripted at exactly the
// n-th operation — an outright failure on even indexes, a torn partial
// write on odd ones. The fault fires, the service degrades, the recovery
// probe heals it, the rejected mutations are retried, and the suite asserts:
//
//   - every acknowledged mutation survives and no rejected one leaves any
//     partial effect — the healed estimates are bit-identical to a
//     never-faulted oracle;
//   - the service ends HEALTHY with the probe counters accounting for the
//     episode;
//   - the checkpoint on disk is decodable at every point — a torn temp file
//     never clobbers the last good checkpoint;
//   - a fresh recovery from the healed directory reconstructs the same
//     bit-identical state.

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"dynppr/internal/ckpt"
	"dynppr/internal/faultfs"
)

// chaosApply retries a mutation through a degraded window: rejected-while-
// degraded is the contract (zero partial effect), so the batch is simply
// re-offered until the recovery probe heals the stack.
func chaosApply(t *testing.T, svc *Service, b Batch) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, err := svc.ApplyBatch(b)
		if err == nil {
			return
		}
		if !errors.Is(err, ErrPersistenceDegraded) {
			t.Fatalf("mutation rejected with a non-degraded error: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("degraded window never healed: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func chaosCheckpoint(t *testing.T, svc *Service) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, err := svc.Checkpoint()
		if err == nil {
			return
		}
		if !errors.Is(err, ErrPersistenceDegraded) {
			t.Fatalf("checkpoint failed with a non-degraded error: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpoint never healed: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// chaosWorkload drives the fixed operation sequence: the update stream with
// a manual checkpoint after the third batch (so checkpoint and WAL-rotation
// write sites sit inside the faultable window, not just appends).
func chaosWorkload(t *testing.T, svc *Service, stream []Batch) {
	t.Helper()
	for k, b := range stream {
		chaosApply(t, svc, b)
		if k == 2 {
			chaosCheckpoint(t, svc)
		}
	}
}

// The subtests sweep PoolWorkers (named "parallelism=" as in
// TestCrashRecoveryDifferential); the final recovery runs at the other size.
func TestChaosDifferential(t *testing.T) {
	for _, pool := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", pool), func(t *testing.T) {
			testChaosDifferential(t, pool)
		})
	}
}

func testChaosDifferential(t *testing.T, pool int) {
	const batches = 5
	initial, stream := recoveryWorkload(t, 250, 2500, batches, 20)

	opts := DefaultOptions()
	opts.Epsilon = 1e-5
	sources := GraphFromEdges(initial).TopDegreeVertices(2)
	oracle := oracleStates(t, initial, sources, stream, opts)
	so := ServiceOptions{Options: opts, PoolWorkers: pool}
	recSo := ServiceOptions{Options: opts, PoolWorkers: 5 - pool}

	boot := func(t *testing.T) (*Service, *faultfs.Injector, string) {
		t.Helper()
		in := faultfs.NewInjector(faultfs.OS)
		dir := filepath.Join(t.TempDir(), "data")
		svc, err := NewPersistentService(GraphFromEdges(initial), sources, so,
			PersistOptions{Dir: dir, Sync: SyncAlways, FS: in, ProbeBackoff: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return svc, in, dir
	}

	// Fault-free calibration run: count the workload's fault-eligible write
	// operations (boot excluded — Ops() is read after construction) and pin
	// the oracle agreement of the unfaulted path.
	svc, in, _ := boot(t)
	preOps := in.Ops()
	chaosWorkload(t, svc, stream)
	faultable := in.Ops() - preOps
	assertRecoveredState(t, svc, sources, oracle[batches], batches)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if faultable < int64(2*batches) {
		t.Fatalf("workload exercised only %d write operations; the sweep would be vacuous", faultable)
	}
	t.Logf("sweeping a fault over each of %d write operations", faultable)

	for n := int64(1); n <= faultable; n++ {
		n := n
		t.Run(fmt.Sprintf("op=%d", n), func(t *testing.T) {
			svc, in, dir := boot(t)
			defer svc.Close()
			rule := faultfs.Rule{Op: faultfs.OpAny, Nth: int(n)}
			if n%2 == 1 {
				rule.Mode = faultfs.ModePartial
				rule.Partial = 7
			}
			in.Add(rule)

			chaosWorkload(t, svc, stream)

			// The one-shot fault has fired and been healed (or hit an
			// operation whose retry healed it): the service must end HEALTHY
			// with the episode accounted, and bit-identical to the oracle.
			h := waitPersistState(t, svc, PersistHealthy)
			if h.Err != "" {
				t.Fatalf("healthy service still carries error %q", h.Err)
			}
			st := svc.Stats().Persistence
			if st.ProbeSuccesses < 1 {
				t.Fatalf("fault at op %d never drove a successful recovery probe (attempts %d)",
					n, st.ProbeAttempts)
			}
			if st.DegradedSeconds <= 0 {
				t.Fatal("degraded episode not accounted in DegradedSeconds")
			}
			assertRecoveredState(t, svc, sources, oracle[batches], batches)

			// Torn-temp invariant: whatever the fault did, the checkpoint
			// path always holds a complete, decodable checkpoint.
			if _, err := ckpt.LoadFileFS(faultfs.OS, checkpointPath(dir)); err != nil {
				t.Fatalf("checkpoint on disk undecodable after healed episode: %v", err)
			}

			if err := svc.Close(); err != nil {
				t.Fatalf("close after healed episode: %v", err)
			}
			// A real recovery from the healed directory (clean filesystem)
			// reconstructs the same bit-identical state.
			rec, err := NewServiceFromRecovery(recSo, PersistOptions{Dir: dir, Sync: SyncAlways})
			if err != nil {
				t.Fatalf("recovery from healed directory: %v", err)
			}
			defer rec.Close()
			assertRecoveredState(t, rec, sources, oracle[batches], batches)
		})
	}
}
