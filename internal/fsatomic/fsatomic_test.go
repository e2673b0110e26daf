package fsatomic

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"dynppr/internal/faultfs"
)

// noTmpLitter fails the test when the directory holds any *.tmp file: every
// aborted write must clean up after itself.
func noTmpLitter(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

func TestWriteFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := WriteFileFS(faultfs.OS, path, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "payload" {
		t.Fatalf("read back: %q, %v", got, err)
	}
}

// TestFaultsPreserveOldFile scripts a fault at every step of the atomic
// write dance and checks the two invariants that make it atomic: the old
// complete file survives untouched, and no temp file is left behind.
func TestFaultsPreserveOldFile(t *testing.T) {
	steps := []faultfs.Rule{
		{Op: faultfs.OpOpen, Path: ".tmp"},
		{Op: faultfs.OpWrite, Path: ".tmp"},
		{Op: faultfs.OpWrite, Path: ".tmp", Mode: faultfs.ModePartial, Partial: 2},
		{Op: faultfs.OpSync, Path: ".tmp"},
		{Op: faultfs.OpRename},
	}
	for _, rule := range steps {
		t.Run(rule.Op.String(), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "f")
			if err := os.WriteFile(path, []byte("old good data"), 0o644); err != nil {
				t.Fatal(err)
			}
			in := faultfs.NewInjector(faultfs.OS)
			in.Add(rule)

			if err := WriteFileFS(in, path, []byte("new data")); err == nil {
				t.Fatal("faulted write reported success")
			}
			got, err := os.ReadFile(path)
			if err != nil || string(got) != "old good data" {
				t.Fatalf("old file after fault: %q, %v", got, err)
			}
			noTmpLitter(t, dir)

			// The fault condition clears; the same write now succeeds.
			in.Clear()
			if err := WriteFileFS(in, path, []byte("new data")); err != nil {
				t.Fatalf("write after fault cleared: %v", err)
			}
			if got, _ := os.ReadFile(path); string(got) != "new data" {
				t.Fatalf("file after healed write: %q", got)
			}
		})
	}
}

// TestSilentShortWriteCaught is the reason the verify step exists: a write
// that lies about its length must be detected by the read-back comparison
// before the rename can clobber good data.
func TestSilentShortWriteCaught(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	in := faultfs.NewInjector(faultfs.OS)
	in.Add(faultfs.Rule{Op: faultfs.OpWrite, Path: ".tmp", Mode: faultfs.ModeSilentShort, Partial: 4})

	err := WriteFileFS(in, path, []byte("a much longer payload"))
	if err == nil {
		t.Fatal("lying short write was not caught by verification")
	}
	if !strings.Contains(err.Error(), "verify") {
		t.Fatalf("error does not name the verify step: %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("old file after lying write: %q", got)
	}
	noTmpLitter(t, dir)
}

func TestENOSPCErrorSurfaces(t *testing.T) {
	in := faultfs.NewInjector(faultfs.OS)
	in.Add(faultfs.Rule{Op: faultfs.OpWrite})
	err := WriteFileFS(in, filepath.Join(t.TempDir(), "f"), []byte("x"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("got %v, want ENOSPC to surface for classification", err)
	}
}

func TestSyncDir(t *testing.T) {
	if err := SyncDirFS(faultfs.OS, t.TempDir()); err != nil {
		t.Fatalf("SyncDirFS on a real directory: %v", err)
	}
	in := faultfs.NewInjector(faultfs.OS)
	in.Add(faultfs.Rule{Op: faultfs.OpSync})
	if err := SyncDirFS(in, t.TempDir()); err == nil {
		t.Fatal("faulted dir fsync reported success")
	}
}
