// Package fsatomic holds the crash-safe file-write primitives the
// persistence layer's two on-disk artifacts (WAL segments and checkpoints)
// share, so the temp-write/fsync/verify/rename/dir-sync dance exists exactly
// once. All I/O goes through a faultfs.FS, which is a passthrough in
// production and a scripted fault injector in tests.
package fsatomic

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"dynppr/internal/faultfs"
)

// WriteFileFS atomically replaces path with data: the bytes go to path.tmp,
// are fsynced, read back and compared (catching silent short or bit-damaged
// writes before they can replace good data), renamed over path, and the
// directory entry is fsynced. A crash or an I/O error at any point leaves
// either the old complete file or the new one — never a torn hybrid — and
// every failure path removes the temp file so degraded episodes do not
// accumulate *.tmp litter.
func WriteFileFS(fs faultfs.FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return err
	}
	got, err := fs.ReadFile(tmp)
	if err != nil {
		fs.Remove(tmp)
		return fmt.Errorf("fsatomic: verify %s: %w", tmp, err)
	}
	if !bytes.Equal(got, data) {
		fs.Remove(tmp)
		return fmt.Errorf("fsatomic: verify %s: wrote %d bytes but %d read back (torn or lying write)",
			tmp, len(data), len(got))
	}
	if err := fs.Rename(tmp, path); err != nil {
		fs.Remove(tmp)
		return err
	}
	return SyncDirFS(fs, filepath.Dir(path))
}

// SyncDirFS fsyncs a directory so a just-renamed file's directory entry is
// durable.
func SyncDirFS(fs faultfs.FS, dir string) error {
	d, err := fs.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
