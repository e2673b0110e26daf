package dynppr

// White-box promotion tests: they wedge the unexported write pipeline to
// make UpdateSources fail deterministically, which cannot be arranged
// through the public API without sleeps.

import (
	"context"
	"math/rand"
	"testing"
)

// odRingEdges is a ring — every vertex reachable, so every cold push does
// real work — plus random chords up to the requested edge count.
func odRingEdges(vertices, edges int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	list := make([]Edge, 0, edges)
	for i := 0; i < vertices; i++ {
		list = append(list, Edge{U: VertexID(i), V: VertexID((i + 1) % vertices)})
	}
	for len(list) < edges {
		u, v := VertexID(rng.Intn(vertices)), VertexID(rng.Intn(vertices))
		if u != v {
			list = append(list, Edge{U: u, V: v})
		}
	}
	return list
}

func promoteTestService(t *testing.T) *Service {
	t.Helper()
	edges := odRingEdges(80, 400, 17)
	so := DefaultServiceOptions()
	so.QueueDepth = 1
	so.OnDemand = OnDemandOptions{
		Enabled: true, Epsilon: 1e-3, PromoteAfter: 1, MaxAutoSources: 1,
	}
	svc, err := NewService(GraphFromEdges(edges), []VertexID{79}, so)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

func isTracked(svc *Service, v VertexID) bool {
	_, ok := (*svc.table.Load())[v]
	return ok
}

// TestManualReAddIsNeverEvicted pins that the auto mark belongs to the
// tracked source, not to its id: a promoted source that is removed and then
// added by hand is a manual source, so a later promotion past capacity must
// neither evict it nor count it as auto-promoted.
func TestManualReAddIsNeverEvicted(t *testing.T) {
	svc := promoteTestService(t)
	od := svc.od
	ctx := context.Background()

	const a, b = VertexID(11), VertexID(22)
	od.note(a)
	if !od.maybePromote(ctx, a) {
		t.Fatal("promoting a failed on an idle service")
	}
	if err := svc.UpdateSources(context.Background(), nil, []VertexID{a}); err != nil {
		t.Fatalf("UpdateSources remove a: %v", err)
	}
	if err := svc.UpdateSources(context.Background(), []VertexID{a}, nil); err != nil {
		t.Fatalf("UpdateSources add a: %v", err)
	}
	od.note(b)
	if !od.maybePromote(ctx, b) {
		t.Fatal("promoting b failed on an idle service")
	}
	if !isTracked(svc, a) {
		t.Fatal("manually added source a was evicted by b's promotion")
	}
	if !isTracked(svc, b) {
		t.Fatal("b not tracked after promotion")
	}
	if got := svc.Stats().OnDemand.AutoSources; got != 1 {
		t.Fatalf("auto sources = %d, want 1 (b alone; a was added by hand)", got)
	}
}

// TestMaybePromoteOverloadKeepsVictim pins the add-then-evict ordering bugfix:
// a promotion that fails admission (overloaded pipeline) must tear nothing
// down — previously the victim was evicted BEFORE the add, so a failed add
// lost a healthy tracked source and gained nothing.
func TestMaybePromoteOverloadKeepsVictim(t *testing.T) {
	svc := promoteTestService(t)
	od := svc.od
	tracked := func(v VertexID) bool { return isTracked(svc, v) }

	const a, b = VertexID(11), VertexID(22)
	od.note(a)
	if !od.maybePromote(context.Background(), a) {
		t.Fatal("promoting a failed on an idle service")
	}
	if !tracked(a) {
		t.Fatal("a not tracked after promotion")
	}

	// b has reached the promotion threshold...
	od.note(b)

	// ...but the pipeline is wedged: one fn parked inside the pipeline
	// goroutine, one more filling the QueueDepth=1 buffer.
	gate := make(chan struct{})
	if err := svc.admit(context.Background(), task{fn: func() { <-gate }}); err != nil {
		t.Fatalf("admit gate: %v", err)
	}
	if err := svc.admit(context.Background(), task{fn: func() {}}); err != nil {
		t.Fatalf("admit filler: %v", err)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()

	if od.maybePromote(expired, b) {
		t.Fatal("promotion reported success against a wedged pipeline")
	}
	if !tracked(a) {
		t.Fatal("failed promotion evicted the healthy tracked source a")
	}
	if tracked(b) {
		t.Fatal("b tracked despite failed promotion")
	}
	if got := od.evictions.Load(); got != 0 {
		t.Fatalf("evictions = %d after failed promotion, want 0", got)
	}
	od.mu.Lock()
	count := 0
	if el := od.cand[b]; el != nil {
		count = el.Value.(*odCandidate).count
	}
	od.mu.Unlock()
	if count < od.opts.PromoteAfter {
		t.Fatalf("candidate count for b lost (%d); a later query could not retry the promotion", count)
	}

	// Unwedge and drain, then the retry succeeds and only now is the
	// coldest auto source evicted.
	close(gate)
	drained := make(chan struct{})
	if err := svc.admit(context.Background(), task{fn: func() {}, done: drained}); err != nil {
		t.Fatalf("admit drain: %v", err)
	}
	<-drained

	if !od.maybePromote(context.Background(), b) {
		t.Fatal("promotion retry failed on a drained pipeline")
	}
	if !tracked(b) {
		t.Fatal("b not tracked after successful retry")
	}
	if tracked(a) {
		t.Fatal("a still tracked; capacity-1 auto set should have evicted it")
	}
	if got := od.evictions.Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if got := od.promotions.Load(); got != 2 {
		t.Fatalf("promotions = %d, want 2", got)
	}
}
