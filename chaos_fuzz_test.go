package dynppr_test

// Fuzz companion to the chaos differential suite: arbitrary fault scripts —
// decoded from the fuzz input into up to four faultfs rules — are armed over
// a WAL append stream with a mid-stream checkpoint, and the durability
// contract is checked against the clean filesystem afterwards:
//
//   - the WAL stays readable, every acknowledged append survives in order,
//     and at most the single in-flight record (acked-but-rolled-back-fault)
//     can trail it;
//   - the checkpoint file always decodes, at either the old or the new LSN —
//     a torn temp file never clobbers the last good checkpoint;
//   - a checkpoint write that reported success is really the new one.
//
// Lying short writes (ModeSilentShort) are scoped to *.tmp paths: only the
// read-back-verified temp-then-rename sites can detect a kernel that
// acknowledges bytes it never wrote, so an unscoped lying write to the live
// WAL would be an (accepted) undetectable-by-design data loss, not a bug.

import (
	"path/filepath"
	"testing"

	"dynppr/internal/ckpt"
	"dynppr/internal/faultfs"
	"dynppr/internal/graph"
	"dynppr/internal/stream"
	"dynppr/internal/wal"
)

// decodeFaultScript parses four bytes per rule: operation kind, 1-based
// operation index, failure mode, and the torn-prefix length.
func decodeFaultScript(script []byte) []faultfs.Rule {
	var rules []faultfs.Rule
	for len(script) >= 4 && len(rules) < 4 {
		r := faultfs.Rule{
			Op:      faultfs.Op(script[0] % 7),
			Nth:     int(script[1]%24) + 1,
			Mode:    faultfs.Mode(script[2] % 3),
			Partial: int(script[3] % 16),
		}
		if r.Mode == faultfs.ModeSilentShort {
			r.Path = ".tmp"
		}
		rules = append(rules, r)
		script = script[4:]
	}
	return rules
}

func fuzzBatch(i int) stream.Batch {
	b := make(stream.Batch, i%3+1)
	for j := range b {
		b[j] = stream.Update{U: graph.VertexID(j), V: graph.VertexID(j + i + 1), Op: stream.Insert}
	}
	return b
}

func FuzzFaultScriptRoundTrip(f *testing.F) {
	f.Add([]byte{})                                               // no faults: clean round trip
	f.Add([]byte{2, 2, 0, 0})                                     // fail an early write outright
	f.Add([]byte{2, 4, 1, 7})                                     // torn partial append
	f.Add([]byte{2, 0, 2, 10})                                    // lying short write on a temp file
	f.Add([]byte{4, 0, 0, 0})                                     // fail the first rename
	f.Add([]byte{3, 3, 0, 0, 6, 0, 0, 0})                         // fsync fault plus a failed rollback truncate
	f.Add([]byte{0, 5, 1, 3, 0, 9, 0, 0})                         // wildcard faults, torn then outright
	f.Add([]byte{1, 1, 0, 0, 2, 1, 1, 1, 3, 1, 0, 0, 4, 1, 0, 0}) // pile-up at op 1

	f.Fuzz(func(t *testing.T, script []byte) {
		dir := t.TempDir()
		walPath := filepath.Join(dir, "wal.log")
		ckptPath := filepath.Join(dir, "checkpoint")

		// The last good checkpoint predates the fault script.
		const oldLSN = 0
		last := &ckpt.Data{
			LSN: oldLSN, Alpha: 0.2, Epsilon: 1e-3,
			CSR: graph.FromEdges([]graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}}).CompactedSnapshot(),
		}
		if err := ckpt.WriteFileFS(faultfs.OS, ckptPath, last); err != nil {
			t.Fatal(err)
		}

		in := faultfs.NewInjector(faultfs.OS)
		for _, r := range decodeFaultScript(script) {
			in.Add(r)
		}

		l, _, err := wal.OpenOrCreate(walPath, oldLSN, wal.Options{Sync: wal.SyncAlways, FS: in})
		var acked []uint64
		ackedCkpt := false
		var newLSN uint64
		if err == nil {
			// Drive the workload the way a degraded service would: stop
			// mutating at the first storage error.
			for i := 0; i < 8; i++ {
				if i == 4 {
					next := *last
					next.LSN = l.NextLSN()
					// Record the attempted LSN before writing: a fault after
					// the rename (directory fsync) reports failure with the
					// new checkpoint already in place — a legal outcome.
					newLSN = next.LSN
					if err := ckpt.WriteFileFS(in, ckptPath, &next); err != nil {
						break
					}
					ackedCkpt = true
				}
				lsn, err := l.AppendBatch(fuzzBatch(i))
				if err != nil {
					break
				}
				acked = append(acked, lsn)
			}
			l.Close()
		}

		// Verification runs against the clean filesystem: what a process
		// restarted after the fault would actually find.
		if err == nil {
			base, recs, _, serr := wal.ScanFile(walPath)
			if serr != nil {
				t.Fatalf("WAL with acked records unreadable: %v", serr)
			}
			if base != oldLSN {
				t.Fatalf("WAL base %d, want %d", base, oldLSN)
			}
			if len(recs) < len(acked) || len(recs) > len(acked)+1 {
				t.Fatalf("scan sees %d records, acked %d: acked mutations must survive, and only the one in-flight record may trail them", len(recs), len(acked))
			}
			for i, lsn := range acked {
				if recs[i].LSN != lsn {
					t.Fatalf("record %d has LSN %d, acked %d", i, recs[i].LSN, lsn)
				}
			}
		}

		d, lerr := ckpt.LoadFileFS(faultfs.OS, ckptPath)
		if lerr != nil {
			t.Fatalf("checkpoint undecodable after fault script: %v", lerr)
		}
		switch {
		case ackedCkpt && d.LSN != newLSN:
			t.Fatalf("checkpoint write was acknowledged at LSN %d but disk holds %d", newLSN, d.LSN)
		case !ackedCkpt && d.LSN != oldLSN && d.LSN != newLSN:
			t.Fatalf("checkpoint LSN %d is neither the old (%d) nor the attempted (%d) snapshot", d.LSN, oldLSN, newLSN)
		}
	})
}
