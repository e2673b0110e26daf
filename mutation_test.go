package dynppr

// Tests of the one mutation path: a change that fails admission or
// validation has no effect at all, and a promotion keeps its mark across a
// restart on either recovery path.

import (
	"context"
	"errors"
	"path/filepath"
	"slices"
	"testing"
)

// wedge parks the pipeline of a QueueDepth-1 service — one task blocked
// inside the pipeline goroutine, one more filling the queue — so admission
// under a done context fails at once. release unblocks it and waits for
// the queue to drain.
func wedge(t *testing.T, svc *Service) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	if err := svc.admit(context.Background(), task{fn: func() { <-gate }}); err != nil {
		t.Fatalf("admit gate: %v", err)
	}
	if err := svc.admit(context.Background(), task{fn: func() {}}); err != nil {
		t.Fatalf("admit filler: %v", err)
	}
	return func() {
		close(gate)
		drained := make(chan struct{})
		if err := svc.admit(context.Background(), task{fn: func() {}, done: drained}); err != nil {
			t.Fatalf("admit drain: %v", err)
		}
		<-drained
	}
}

// servedState is what a rejected mutation must leave as it was.
type servedState struct {
	sources                   []VertexID
	nextLSN                   uint64
	batches, applied, skipped int64
}

func servedStateOf(svc *Service) servedState {
	st := svc.Stats()
	return servedState{svc.Sources(), st.Persistence.NextLSN, st.Batches, st.UpdatesApplied, st.UpdatesSkipped}
}

func (a servedState) equal(b servedState) bool {
	return slices.Equal(a.sources, b.sources) && a.nextLSN == b.nextLSN &&
		a.batches == b.batches && a.applied == b.applied && a.skipped == b.skipped
}

// TestServiceUpdateSourcesAllOrNothing pins that UpdateSources is one
// mutation: one that fails admission, or whose validation fails at any of
// its records — a valid addition followed by a duplicate, an untracked
// removal — leaves the tracked set, the journal and the batch counters as
// they were, and one that passes applies every record.
func TestServiceUpdateSourcesAllOrNothing(t *testing.T) {
	so := DefaultServiceOptions()
	so.QueueDepth = 1
	po := PersistOptions{Dir: filepath.Join(t.TempDir(), "data"), Sync: SyncNone}
	svc, err := NewPersistentService(GraphFromEdges(odRingEdges(80, 400, 17)), []VertexID{79}, so, po)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.ApplyBatch(Batch{{U: 1, V: 40, Op: Insert}, {U: 1, V: 40, Op: Insert}}); err != nil {
		t.Fatal(err)
	}
	before := servedStateOf(svc)
	expired, cancel := context.WithCancel(context.Background())
	cancel()

	for _, tc := range []struct {
		name        string
		add, remove []VertexID
		want        error // nil: any error
		wedged      bool
	}{
		{"overloaded", []VertexID{11, 22}, []VertexID{79}, ErrOverloaded, true},
		{"duplicate-addition", []VertexID{11, 11}, nil, ErrSourceTracked, false},
		{"tracked-addition", []VertexID{11, 79}, nil, ErrSourceTracked, false},
		{"untracked-removal", []VertexID{11}, []VertexID{22}, ErrUnknownSource, false},
		{"removal-twice", []VertexID{11}, []VertexID{11, 11}, ErrUnknownSource, false},
		{"out-of-range", []VertexID{11, 80 + MaxVertexGrowth}, nil, ErrVertexOutOfRange, false},
		{"negative", []VertexID{11, -3}, nil, nil, false},
	} {
		ctx := context.Background()
		release := func() {}
		if tc.wedged {
			ctx, release = expired, wedge(t, svc)
		}
		err := svc.UpdateSources(ctx, tc.add, tc.remove)
		release()
		if err == nil || tc.want != nil && !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		if got := servedStateOf(svc); !got.equal(before) {
			t.Fatalf("%s: rejected change took effect: %+v -> %+v", tc.name, before, got)
		}
	}

	// A change that validates applies every record, and a removal may name
	// a source the same call adds.
	if err := svc.UpdateSources(context.Background(), []VertexID{11, 22}, []VertexID{22, 79}); err != nil {
		t.Fatal(err)
	}
	got := servedStateOf(svc)
	if !slices.Equal(got.sources, []VertexID{11}) || got.nextLSN != before.nextLSN+4 || got.batches != before.batches {
		t.Fatalf("applied change: %+v, want sources [11] and 4 more records than %+v", got, before)
	}
}

// TestPromotionMarkSurvivesRestart pins that a promoted source stays
// evictable across a restart, whether recovery replays the promotion from
// the WAL or reads its mark from a checkpoint. At MaxAutoSources 1,
// promoting 11, restarting, then promoting 22 and 33 leaves [33 79]; a
// restart that forgot the mark turned 11 into a source added by hand,
// never evicted.
func TestPromotionMarkSurvivesRestart(t *testing.T) {
	for _, path := range []string{"wal", "checkpoint"} {
		t.Run(path, func(t *testing.T) {
			so := DefaultServiceOptions()
			so.OnDemand = OnDemandOptions{Enabled: true, Epsilon: 1e-3, PromoteAfter: 1, MaxAutoSources: 1}
			po := PersistOptions{Dir: filepath.Join(t.TempDir(), "data"), Sync: SyncNone}
			svc, err := NewPersistentService(GraphFromEdges(odRingEdges(80, 400, 17)), []VertexID{79}, so, po)
			if err != nil {
				t.Fatal(err)
			}
			promote := func(v VertexID) {
				t.Helper()
				if _, qi, err := svc.QueryTopKCtx(context.Background(), v, 3); err != nil || !qi.Promoted {
					t.Fatalf("query of %d: promoted %v, err %v", v, qi.Promoted, err)
				}
			}
			promote(11)
			if path == "checkpoint" {
				if _, err := svc.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}
			if svc, err = NewServiceFromRecovery(so, po); err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			if got := svc.Stats().OnDemand.AutoSources; got != 1 {
				t.Fatalf("recovered auto sources = %d, want 1", got)
			}
			promote(22)
			promote(33)
			if got := svc.Sources(); !slices.Equal(got, []VertexID{33, 79}) {
				t.Fatalf("sources = %v, want [33 79]", got)
			}
			if got := svc.Stats().OnDemand.AutoSources; got != 1 {
				t.Fatalf("auto sources = %d, want 1", got)
			}
		})
	}
}
