package dynppr

// Recovery corner cases of the persistent Service. The crash-recovery and
// churn differentials themselves are scenarios in scenario_test.go.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dynppr/internal/ckpt"
)

// TestRecoveryOfZeroSourceService guards the empty-source-set corner: a live
// service may remove its last source, and the checkpoint that state produces
// must stay recoverable — recovery boots with zero sources and UpdateSources
// brings the service back to life.
func TestRecoveryOfZeroSourceService(t *testing.T) {
	initial, stream := windowWorkload(t, recoveryGraph(200, 1600), 2, 10)
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
	if err := svc.UpdateSources(context.Background(), nil, []VertexID{sources[0]}); err != nil {
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
	if err := rec.UpdateSources(context.Background(), []VertexID{sources[0]}, nil); err != nil {
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
	initial, stream := windowWorkload(t, recoveryGraph(200, 1600), 2, 10)
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
	liveEst, _, err := svc.EstimatesInfo(sources[0])
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
	recEst, _, err := rec.EstimatesInfo(sources[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(recEst, liveEst) {
		t.Fatal("recovered estimates diverge after a batch with unjournalable updates")
	}
}

// TestOutOfRangeVertexRejectedBeforeJournal guards the vertex-growth bound:
// an edge endpoint or a source MaxVertexGrowth past the graph would size
// every per-vertex array to it, so it is refused with ErrVertexOutOfRange
// before anything is journaled — the valid updates of the batch included —
// and a restart has nothing to replay.
func TestOutOfRangeVertexRejectedBeforeJournal(t *testing.T) {
	initial, stream := windowWorkload(t, recoveryGraph(200, 1600), 1, 10)
	so := ServiceOptions{Options: DefaultOptions(), PoolWorkers: 1}
	svc, err := NewPersistentService(GraphFromEdges(initial), GraphFromEdges(initial).TopDegreeVertices(1), so,
		PersistOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	before := svc.Stats()
	far := VertexID(before.Vertices + 70_000)
	_, errBatch := svc.ApplyBatch(Batch{stream[0][0], {U: 1, V: far, Op: Insert}})
	for _, err := range []error{errBatch, svc.UpdateSources(context.Background(), []VertexID{far}, nil)} {
		if !errors.Is(err, ErrVertexOutOfRange) {
			t.Fatalf("vertex %d past a %d-vertex graph: got %v, want ErrVertexOutOfRange", far, before.Vertices, err)
		}
	}
	after := svc.Stats()
	if after.Vertices != before.Vertices || after.UpdatesApplied != 0 ||
		after.Persistence.NextLSN != before.Persistence.NextLSN {
		t.Fatalf("a refused mutation took effect: %d -> %d vertices, %d updates applied, LSN %d -> %d",
			before.Vertices, after.Vertices, after.UpdatesApplied, before.Persistence.NextLSN, after.Persistence.NextLSN)
	}
}

// TestPersistentServiceBootGuards covers the constructor error paths: a
// fresh boot refuses a directory that already holds a checkpoint, recovery
// refuses a directory without one or with one in a retired format (DPPRCKP1,
// DPPRCKP2 or DPPRCKP3), and Checkpoint on an in-memory service reports
// ErrNoPersistence.
func TestPersistentServiceBootGuards(t *testing.T) {
	initial, _ := windowWorkload(t, recoveryGraph(100, 800), 1, 5)
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
	// adjacency-list v1, the two-direction CSR v2 and v3, whose source
	// blocks carry no promotion mark.
	for name, img := range map[string]string{
		"DPPRCKP1": "DPPRCKP1\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00" +
			"\x00\x00\x00\x00\x00\x00\xe0?\x00\x00\x00\x00\x00\x00\xf0?\x00\x00N\x03u\xbe",
		"DPPRCKP2": "DPPRCKP2\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00" +
			"\x00\x00\x00\x00\x00\x00\xe0?\x00\x00\x00\x00\x00\x00\xf0?" +
			"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00:\xff;~",
		"DPPRCKP3": "DPPRCKP3\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00" +
			"\x00\x00\x00\x00\x00\x00\xe0?\x00\x00\x00\x00\x00\x00\xf0?" +
			"\x00\x00\x00\x00\x00\x00\x006\xee_C",
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
