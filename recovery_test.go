package dynppr

// Crash-recovery differential tests: the durability contract of the
// persistent Service is that a recovery from checkpoint + WAL replay is
// indistinguishable — bit for bit — from a process that was simply fed the
// surviving prefix of the update stream and never crashed. The tests simulate crashes by truncating the WAL at every
// record boundary and at torn positions inside records (mid-frame,
// mid-payload, inside the checksum), recover, and compare estimates,
// residuals and snapshot epochs against oracle Trackers.

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dynppr/internal/ckpt"
	"dynppr/internal/wal"
)

// recoveryWorkload builds a deterministic initial graph and update-batch
// sequence: a sliding window over an R-MAT edge stream, so every batch mixes
// insertions of arriving edges with deletions of expiring ones.
func recoveryWorkload(t *testing.T, vertices, edges, batches, slide int) ([]Edge, []Batch) {
	t.Helper()
	all, err := GenerateEdges(SyntheticConfig{
		Name: "recovery", Model: ModelRMAT, Vertices: vertices, Edges: edges, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := NewStream(all, 23)
	window, initial := NewSlidingWindow(stream, 0.5)
	out := make([]Batch, 0, batches)
	for i := 0; i < batches; i++ {
		b := window.Slide(slide)
		if len(b) == 0 {
			t.Fatalf("stream exhausted after %d batches", i)
		}
		out = append(out, b)
	}
	return initial, out
}

// bitsEqual compares two float64 vectors for exact bit equality.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sourceState is the oracle's record of one source after a batch prefix.
type sourceState struct {
	estimates []float64
	residuals []float64
}

// oracleStates replays batch prefixes through plain sequential Trackers (one
// per source, each over its own copy of the initial graph) and records the
// exact state after every prefix length k = 0..len(batches).
func oracleStates(t *testing.T, initial []Edge, sources []VertexID, batches []Batch, opts Options) [][]sourceState {
	t.Helper()
	opts.Engine = EngineSequential // the push every Service runs
	states := make([][]sourceState, len(batches)+1)
	trackers := make([]*Tracker, len(sources))
	for i, s := range sources {
		tr, err := NewTracker(GraphFromEdges(initial), s, opts)
		if err != nil {
			t.Fatal(err)
		}
		trackers[i] = tr
	}
	record := func(k int) {
		states[k] = make([]sourceState, len(trackers))
		for i, tr := range trackers {
			states[k][i] = sourceState{
				estimates: tr.Estimates(),
				residuals: tr.st.Residuals(),
			}
		}
	}
	record(0)
	for k, b := range batches {
		for _, tr := range trackers {
			tr.ApplyBatch(b)
		}
		record(k + 1)
	}
	return states
}

// copyDataDir clones a data directory, optionally truncating the WAL copy to
// walBytes (< 0 keeps it whole) to simulate a crash mid-write.
func copyDataDir(t *testing.T, src string, walBytes int64) string {
	t.Helper()
	dst := t.TempDir()
	for _, name := range []string{"checkpoint", "wal.log"} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == "wal.log" && walBytes >= 0 && walBytes < int64(len(data)) {
			data = data[:walBytes]
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// assertRecoveredState checks every source of a recovered service against
// the oracle state for prefix length k: bit-identical estimates and
// residuals, and the exact snapshot epoch (1 cold start + k batches) an
// uncrashed run would serve.
func assertRecoveredState(t *testing.T, svc *Service, sources []VertexID, oracle []sourceState, k int) {
	t.Helper()
	for i, source := range sources {
		src, err := svc.lookup(source)
		if err != nil {
			t.Fatalf("prefix %d: source %d lost in recovery: %v", k, source, err)
		}
		// The pipeline is quiescent (every replay ApplyBatch completed
		// before NewServiceFromRecovery returned), so reading the live
		// state directly is safe.
		if !bitsEqual(src.st.Estimates(), oracle[i].estimates) {
			t.Fatalf("prefix %d: source %d estimates not bit-identical to oracle", k, source)
		}
		if !bitsEqual(src.st.Residuals(), oracle[i].residuals) {
			t.Fatalf("prefix %d: source %d residuals not bit-identical to oracle", k, source)
		}
		info, err := svc.Info(source)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(1 + k); info.Epoch != want {
			t.Fatalf("prefix %d: source %d epoch %d, want %d", k, source, info.Epoch, want)
		}
		if !info.Converged() {
			t.Fatalf("prefix %d: source %d snapshot not converged", k, source)
		}
		est, err := svc.Estimates(source)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(est, oracle[i].estimates) {
			t.Fatalf("prefix %d: source %d served snapshot disagrees with live state", k, source)
		}
	}
}

// TestCrashRecoveryDifferential is the acceptance test of the persistence
// subsystem: a random update stream is journaled, the journal is cut at
// every record boundary and at torn positions inside records, and each cut
// is recovered and compared against an oracle Tracker fed the surviving
// prefix — written at PoolWorkers 1 and 4, recovered at the other. (The
// subtests keep their "parallelism=" names: the pool is the only parallelism
// a Service has.)
func TestCrashRecoveryDifferential(t *testing.T) {
	for _, pool := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", pool), func(t *testing.T) {
			testCrashRecoveryDifferential(t, pool)
		})
	}
}

func testCrashRecoveryDifferential(t *testing.T, pool int) {
	const batches = 8
	initial, stream := recoveryWorkload(t, 400, 4000, batches, 25)

	opts := DefaultOptions()
	opts.Epsilon = 1e-5
	sources := GraphFromEdges(initial).TopDegreeVertices(2)
	oracle := oracleStates(t, initial, sources, stream, opts)

	so := ServiceOptions{Options: opts, PoolWorkers: pool}
	recSo := ServiceOptions{Options: opts, PoolWorkers: 5 - pool}
	dir := filepath.Join(t.TempDir(), "data")
	svc, err := NewPersistentService(GraphFromEdges(initial), sources, so, PersistOptions{Dir: dir, Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range stream {
		if _, err := svc.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	// The live service must itself agree with the oracle end state.
	assertRecoveredState(t, svc, sources, oracle[batches], batches)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// Enumerate crash points from the intact journal's record layout.
	_, records, walSize, err := wal.ScanFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != batches {
		t.Fatalf("journal holds %d records, want %d", len(records), batches)
	}
	type cut struct {
		bytes    int64
		survives int
	}
	cuts := []cut{
		{0, 0},        // whole file torn away (header recreated at the checkpoint LSN)
		{9, 0},        // torn header
		{-1, batches}, // untouched
		{walSize, batches},
	}
	for i, rec := range records {
		end := rec.Offset + int64(rec.EncodedLen)
		cuts = append(cuts,
			cut{rec.Offset, i},      // boundary before record i
			cut{rec.Offset + 3, i},  // torn mid-frame
			cut{rec.Offset + 10, i}, // torn mid-payload
			cut{end - 1, i},         // one byte short
			cut{end, i + 1},         // boundary after record i
		)
	}

	for _, c := range cuts {
		cdir := copyDataDir(t, dir, c.bytes)
		rec, err := NewServiceFromRecovery(recSo, PersistOptions{Dir: cdir, Sync: SyncNone})
		if err != nil {
			t.Fatalf("cut at %d bytes: recovery failed: %v", c.bytes, err)
		}
		assertRecoveredState(t, rec, sources, oracle[c.survives], c.survives)
		// The recovered service keeps working: the remaining stream applies
		// cleanly and lands on the oracle end state.
		for _, b := range stream[c.survives:] {
			if _, err := rec.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		assertRecoveredState(t, rec, sources, oracle[batches], batches)
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryWithCheckpointAndSourceChurn exercises the full record-type
// surface across a restart: batches, a checkpoint mid-stream (rotating the
// WAL), a source added and a source removed — then compares the recovered
// service bit-for-bit against an uncrashed in-memory Service fed the same
// operation sequence, including after a crash that tears the rotated WAL.
func TestRecoveryWithCheckpointAndSourceChurn(t *testing.T) {
	const batches = 9
	initial, stream := recoveryWorkload(t, 300, 3000, batches, 20)

	opts := DefaultOptions()
	opts.Epsilon = 1e-5
	base := GraphFromEdges(initial).TopDegreeVertices(3)
	sources := base[:2]
	// extra is some vertex distinct from the initial sources.
	extra := VertexID(0)
	for extra == sources[0] || extra == sources[1] {
		extra++
	}
	removed := sources[0]

	// ops replays the same sequence against any Service.
	ops := func(svc *Service, checkpoint func()) error {
		for k, b := range stream {
			if _, err := svc.ApplyBatch(b); err != nil {
				return err
			}
			switch k {
			case 2:
				if err := svc.AddSource(extra); err != nil {
					return err
				}
			case 4:
				checkpoint()
			case 6:
				if err := svc.RemoveSource(removed); err != nil {
					return err
				}
			}
		}
		return nil
	}

	// Reference: an in-memory service, never persisted, never crashed.
	ref, err := NewService(GraphFromEdges(initial), sources, ServiceOptions{Options: opts, PoolWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ops(ref, func() {}); err != nil {
		t.Fatal(err)
	}

	// Persistent run with a real mid-stream checkpoint.
	dir := filepath.Join(t.TempDir(), "data")
	svc, err := NewPersistentService(GraphFromEdges(initial), sources, ServiceOptions{Options: opts, PoolWorkers: 2},
		PersistOptions{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := ops(svc, func() {
		if _, err := svc.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	compare := func(t *testing.T, got, want *Service) {
		t.Helper()
		gotSrc, wantSrc := got.Sources(), want.Sources()
		if len(gotSrc) != len(wantSrc) {
			t.Fatalf("source sets differ: %v vs %v", gotSrc, wantSrc)
		}
		for i := range gotSrc {
			if gotSrc[i] != wantSrc[i] {
				t.Fatalf("source sets differ: %v vs %v", gotSrc, wantSrc)
			}
			a, ai, err := got.EstimatesInfo(gotSrc[i])
			if err != nil {
				t.Fatal(err)
			}
			b, bi, err := want.EstimatesInfo(gotSrc[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(a, b) {
				t.Fatalf("source %d estimates not bit-identical", gotSrc[i])
			}
			if ai.Epoch != bi.Epoch {
				t.Fatalf("source %d epoch %d, want %d", gotSrc[i], ai.Epoch, bi.Epoch)
			}
		}
	}

	// Full recovery: everything survived (fsync=always, clean close). The
	// WAL holds post-checkpoint records, so this boot must re-checkpoint.
	fullDir := copyDataDir(t, dir, -1)
	rec, err := NewServiceFromRecovery(ServiceOptions{Options: opts, PoolWorkers: 2}, PersistOptions{Dir: fullDir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	compare(t, rec, ref)
	if ps := rec.Stats().Persistence; ps == nil || ps.Checkpoints != 1 {
		t.Fatalf("recovery with replayed records must re-checkpoint: %+v", ps)
	}
	rec.Close()
	// Recovering the now-clean directory again replays nothing, so the boot
	// skips re-serializing the byte-identical checkpoint it just loaded.
	rec, err = NewServiceFromRecovery(ServiceOptions{Options: opts, PoolWorkers: 2}, PersistOptions{Dir: fullDir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	compare(t, rec, ref)
	if ps := rec.Stats().Persistence; ps == nil || ps.Checkpoints != 0 {
		t.Fatalf("clean restart should not rewrite the checkpoint: %+v", ps)
	}
	rec.Close()

	// Torn rotated WAL: cut the journal after its first post-checkpoint
	// record. The surviving operations are batches 0..5 + the AddSource, so
	// rebuild a reference for exactly that prefix.
	_, records, _, err := wal.ScanFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) < 2 {
		t.Fatalf("rotated WAL holds %d records, want at least 2", len(records))
	}
	cutAt := records[1].Offset // keep exactly one post-checkpoint record (batch 5)
	ref2, err := NewService(GraphFromEdges(initial), sources, ServiceOptions{Options: opts, PoolWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ref2.Close()
	for k, b := range stream[:6] {
		if _, err := ref2.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		if k == 2 {
			if err := ref2.AddSource(extra); err != nil {
				t.Fatal(err)
			}
		}
	}
	rec2, err := NewServiceFromRecovery(ServiceOptions{Options: opts, PoolWorkers: 2}, PersistOptions{Dir: copyDataDir(t, dir, cutAt), Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Close()
	compare(t, rec2, ref2)
}

// TestRecoveryOfZeroSourceService guards the empty-source-set corner: a live
// service may remove its last source, and the checkpoint that state produces
// must stay recoverable — recovery boots with zero sources and AddSource
// brings the service back to life.
func TestRecoveryOfZeroSourceService(t *testing.T) {
	initial, stream := recoveryWorkload(t, 200, 1600, 2, 10)
	opts := DefaultOptions()
	opts.Epsilon = 1e-4
	so := ServiceOptions{Options: opts, PoolWorkers: 1}
	sources := GraphFromEdges(initial).TopDegreeVertices(1)
	dir := filepath.Join(t.TempDir(), "data")

	svc, err := NewPersistentService(GraphFromEdges(initial), sources, so, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ApplyBatch(stream[0]); err != nil {
		t.Fatal(err)
	}
	if err := svc.RemoveSource(sources[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := NewServiceFromRecovery(so, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatalf("zero-source checkpoint must stay recoverable: %v", err)
	}
	defer rec.Close()
	if got := rec.Sources(); len(got) != 0 {
		t.Fatalf("recovered sources %v, want none", got)
	}
	if _, err := rec.ApplyBatch(stream[1]); err != nil {
		t.Fatal(err)
	}
	if err := rec.AddSource(sources[0]); err != nil {
		t.Fatal(err)
	}
	if info, err := rec.Info(sources[0]); err != nil || info.Epoch != 1 || !info.Converged() {
		t.Fatalf("re-added source not serving: %+v, %v", info, err)
	}
}

// TestUnjournalableUpdatesDoNotPoisonRecovery guards the batch-sanitizing
// hook: updates the apply path skips as no-ops but the WAL cannot represent
// — a zero-valued Op, a negative vertex id — must be dropped from the
// journal, not mis-encoded. A mis-encoded zero Op would replay as a real
// insert (recovered graph diverges); a mis-encoded negative id would make
// every later record unreadable (data dir bricked).
func TestUnjournalableUpdatesDoNotPoisonRecovery(t *testing.T) {
	initial, stream := recoveryWorkload(t, 200, 1600, 2, 10)
	opts := DefaultOptions()
	opts.Epsilon = 1e-4
	so := ServiceOptions{Options: opts, PoolWorkers: 1}
	sources := GraphFromEdges(initial).TopDegreeVertices(1)
	dir := filepath.Join(t.TempDir(), "data")

	svc, err := NewPersistentService(GraphFromEdges(initial), sources, so, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	edgesBefore := svc.Stats().Edges
	poisoned := Batch{
		{U: 90, V: 91},             // zero Op: skipped by apply
		{U: -1, V: 2, Op: Insert},  // negative id: skipped by apply
		{U: 3, V: -7, Op: Delete},  // negative id: skipped by apply
		{U: 95, V: 96, Op: Op(9)},  // unknown op: skipped by apply
		stream[0][0], stream[0][1], // two genuine updates
	}
	res, err := svc.ApplyBatch(poisoned)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied > 2 {
		t.Fatalf("apply accounting wrong: %+v", res)
	}
	if _, err := svc.ApplyBatch(stream[1]); err != nil {
		t.Fatal(err)
	}
	liveEdges := svc.Stats().Edges
	liveEst, err := svc.Estimates(sources[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := NewServiceFromRecovery(so, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatalf("recovery after journaling a poisoned batch: %v", err)
	}
	defer rec.Close()
	if got := rec.Stats().Edges; got != liveEdges {
		t.Fatalf("recovered graph has %d edges, live had %d (before poison: %d)", got, liveEdges, edgesBefore)
	}
	recEst, err := rec.Estimates(sources[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(recEst, liveEst) {
		t.Fatal("recovered estimates diverge after a batch with unjournalable updates")
	}
}

// TestPersistentServiceBootGuards covers the constructor error paths: a
// fresh boot refuses a directory that already holds a checkpoint, recovery
// refuses a directory without one or with one in a retired format (DPPRCKP1
// or DPPRCKP2), and Checkpoint on an in-memory service reports
// ErrNoPersistence.
func TestPersistentServiceBootGuards(t *testing.T) {
	initial, _ := recoveryWorkload(t, 100, 800, 1, 5)
	opts := DefaultOptions()
	opts.Epsilon = 1e-4
	sources := GraphFromEdges(initial).TopDegreeVertices(1)
	so := ServiceOptions{Options: opts, PoolWorkers: 1}
	dir := filepath.Join(t.TempDir(), "data")

	svc, err := NewPersistentService(GraphFromEdges(initial), sources, so, PersistOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Persistence == nil || st.Persistence.Checkpoints != 1 || st.Persistence.Dir != dir {
		t.Fatalf("persistence stats wrong: %+v", st.Persistence)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := NewPersistentService(GraphFromEdges(initial), sources, so, PersistOptions{Dir: dir}); err == nil {
		t.Fatal("fresh boot over an existing checkpoint must be refused")
	}
	if _, err := NewServiceFromRecovery(so, PersistOptions{Dir: t.TempDir()}); err == nil {
		t.Fatal("recovery without a checkpoint must fail")
	}
	// Well-formed checkpoints of an empty graph in the retired formats: the
	// adjacency-list v1 and the two-direction CSR v2.
	for name, img := range map[string]string{
		"DPPRCKP1": "DPPRCKP1\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00" +
			"\x00\x00\x00\x00\x00\x00\xe0?\x00\x00\x00\x00\x00\x00\xf0?\x00\x00N\x03u\xbe",
		"DPPRCKP2": "DPPRCKP2\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00" +
			"\x00\x00\x00\x00\x00\x00\xe0?\x00\x00\x00\x00\x00\x00\xf0?" +
			"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00:\xff;~",
	} {
		oldDir := t.TempDir()
		if err := os.WriteFile(checkpointPath(oldDir), []byte(img), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := NewServiceFromRecovery(so, PersistOptions{Dir: oldDir}); !errors.Is(err, ckpt.ErrInvalid) {
			t.Fatalf("recovery from a %s checkpoint: got %v, want ckpt.ErrInvalid", name, err)
		}
	}

	mem, err := NewService(GraphFromEdges(initial), sources, so)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if _, err := mem.Checkpoint(); err != ErrNoPersistence {
		t.Fatalf("in-memory Checkpoint: got %v, want ErrNoPersistence", err)
	}
	if mem.Stats().Persistence != nil {
		t.Fatal("in-memory service must report nil persistence stats")
	}
}
