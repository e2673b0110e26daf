package ckpt

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynppr/internal/faultfs"
	"dynppr/internal/graph"
)

// TestWriteFaultKeepsOldCheckpoint scripts a fault at each step of the
// checkpoint write and checks the last good checkpoint stays loadable and no
// temp file accumulates — the invariant that makes a degraded episode safe
// to recover from.
func TestWriteFaultKeepsOldCheckpoint(t *testing.T) {
	old := &Data{LSN: 10, Alpha: 0.15, Epsilon: 1e-6,
		CSR: csrOf(graph.Edge{U: 0, V: 1})}
	next := &Data{LSN: 20, Alpha: 0.15, Epsilon: 1e-6,
		CSR: csrOf(graph.Edge{U: 0, V: 1}, graph.Edge{U: 1, V: 0})}

	rules := []faultfs.Rule{
		{Op: faultfs.OpOpen, Path: ".tmp"},
		{Op: faultfs.OpWrite, Path: ".tmp"},
		{Op: faultfs.OpWrite, Path: ".tmp", Mode: faultfs.ModePartial, Partial: 16},
		{Op: faultfs.OpSync, Path: ".tmp"},
		{Op: faultfs.OpRename},
	}
	for _, rule := range rules {
		t.Run(rule.Op.String()+"-"+modeName(rule.Mode), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "ckpt")
			if err := WriteFile(path, old); err != nil {
				t.Fatal(err)
			}

			in := faultfs.NewInjector(faultfs.OS)
			in.Add(rule)
			if err := WriteFileFS(in, path, next); err == nil {
				t.Fatal("faulted checkpoint write reported success")
			}

			got, err := LoadFile(path)
			if err != nil {
				t.Fatalf("last good checkpoint unreadable after fault: %v", err)
			}
			if got.LSN != old.LSN {
				t.Fatalf("checkpoint LSN %d after fault, want the old %d", got.LSN, old.LSN)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.HasSuffix(e.Name(), ".tmp") {
					t.Fatalf("temp file %s left behind", e.Name())
				}
			}

			// Fault clears; the write now lands and loads at the new LSN.
			in.Clear()
			if err := WriteFileFS(in, path, next); err != nil {
				t.Fatalf("write after fault cleared: %v", err)
			}
			if got, err := LoadFileFS(in, path); err != nil || got.LSN != next.LSN {
				t.Fatalf("healed checkpoint: LSN %d, %v; want %d", got.LSN, err, next.LSN)
			}
		})
	}
}

// TestSilentShortCheckpointCaught: a lying short write of a checkpoint must
// be rejected by fsatomic's read-back verify, never renamed over good data.
func TestSilentShortCheckpointCaught(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt")
	old := &Data{LSN: 5, Alpha: 0.2, Epsilon: 1e-4, CSR: csrOf()}
	if err := WriteFile(path, old); err != nil {
		t.Fatal(err)
	}

	in := faultfs.NewInjector(faultfs.OS)
	in.Add(faultfs.Rule{Op: faultfs.OpWrite, Path: ".tmp", Mode: faultfs.ModeSilentShort, Partial: 8})
	err := WriteFileFS(in, path, &Data{LSN: 6, Alpha: 0.2, Epsilon: 1e-4, CSR: csrOf(graph.Edge{U: 0, V: 1})})
	if err == nil {
		t.Fatal("lying short checkpoint write reported success")
	}
	if got, lerr := LoadFile(path); lerr != nil || got.LSN != 5 {
		t.Fatalf("old checkpoint after lying write: LSN %d, %v", got.LSN, lerr)
	}
}

func modeName(m faultfs.Mode) string {
	switch m {
	case faultfs.ModePartial:
		return "partial"
	case faultfs.ModeSilentShort:
		return "silentshort"
	default:
		return "fail"
	}
}
