package dynppr_test

import (
	"testing"

	"dynppr"
)

// decodeFuzzUpdates turns arbitrary bytes into an update sequence over a
// small vertex universe. Three bytes per update: endpoints modulo 24 (so
// duplicate edges, reinsertions, self-loops and deletes of missing edges all
// occur naturally) and the low bit of the third byte as the operation.
func decodeFuzzUpdates(data []byte) []dynppr.Update {
	const vertices = 24
	updates := make([]dynppr.Update, 0, len(data)/3)
	for i := 0; i+2 < len(data); i += 3 {
		op := dynppr.Insert
		if data[i+2]&1 == 1 {
			op = dynppr.Delete
		}
		updates = append(updates, dynppr.Update{
			U:  dynppr.VertexID(data[i] % vertices),
			V:  dynppr.VertexID(data[i+1] % vertices),
			Op: op,
		})
	}
	return updates
}

// FuzzTrackerApplyBatch feeds arbitrary update sequences — duplicate
// inserts, deletions of edges that do not exist, self-loops, immediate
// reinsertion after deletion — through ApplyBatch on every engine kind and
// checks the scheme's whole contract after every batch: the tracker reports
// convergence, the graph invariants hold, and the estimates are within ε of
// the exact power-iteration answer for the current graph.
func FuzzTrackerApplyBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 0})                                // single insert
	f.Add([]byte{1, 2, 0, 1, 2, 0})                       // duplicate insert
	f.Add([]byte{5, 5, 0, 5, 5, 1})                       // self-loop insert then delete
	f.Add([]byte{9, 4, 1})                                // delete of a missing edge
	f.Add([]byte{1, 2, 0, 1, 2, 1, 1, 2, 0, 1, 2, 1})     // insert/delete churn
	f.Add([]byte{0, 1, 0, 1, 2, 0, 2, 0, 0, 2, 2, 0})     // cycle plus self-loop
	f.Add([]byte{3, 7, 0, 7, 3, 0, 3, 7, 1, 200, 255, 0}) // bidirectional, high bytes

	f.Fuzz(func(t *testing.T, data []byte) {
		updates := decodeFuzzUpdates(data)
		if len(updates) > 120 {
			updates = updates[:120]
		}
		// The first byte selects the engine so the corpus exercises all of
		// them; the mutation space covers each engine with every sequence
		// shape over time.
		engines := []dynppr.EngineKind{
			dynppr.EngineSequential, dynppr.EngineParallel, dynppr.EngineDeterministic,
		}
		var pick byte
		if len(data) > 0 {
			pick = data[0]
		}
		opts := dynppr.DefaultOptions()
		opts.Engine = engines[int(pick)%len(engines)]
		opts.Epsilon = 1e-5
		opts.Parallelism = 2

		tr, err := dynppr.NewTracker(dynppr.NewGraph(0), 3, opts)
		if err != nil {
			t.Fatal(err)
		}
		for len(updates) > 0 {
			n := 8
			if n > len(updates) {
				n = len(updates)
			}
			batch := dynppr.Batch(updates[:n])
			updates = updates[n:]
			res := tr.ApplyBatch(batch)
			if res.Applied+res.Skipped != len(batch) {
				t.Fatalf("batch accounting wrong: %+v for %d updates", res, len(batch))
			}
			if !tr.Converged() {
				t.Fatalf("tracker not converged after batch %v", batch)
			}
			if err := tr.Graph().CheckConsistency(); err != nil {
				t.Fatal(err)
			}
			maxErr, err := tr.ExactError()
			if err != nil {
				t.Fatal(err)
			}
			if maxErr > opts.Epsilon {
				t.Fatalf("exact error %v exceeds ε %v after batch %v (engine %v)",
					maxErr, opts.Epsilon, batch, opts.Engine)
			}
		}
	})
}
