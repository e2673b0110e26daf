package faultfs

import (
	"os"
	"strings"
	"sync"
	"syscall"
)

// Op names one write-path operation kind the injector can fault.
type Op uint8

// Fault-eligible operation kinds. OpAny is a rule wildcard matching every
// kind; it never identifies a concrete operation.
const (
	OpAny Op = iota
	// OpOpen is a write-intent OpenFile (O_WRONLY, O_RDWR, O_CREATE,
	// O_TRUNC or O_APPEND set). Read-only opens pass through un-faulted.
	OpOpen
	// OpWrite is a File.Write.
	OpWrite
	// OpSync is a File.Sync — file or directory fsync.
	OpSync
	// OpRename is an FS.Rename.
	OpRename
	// OpRemove is an FS.Remove.
	OpRemove
	// OpTruncate is a File.Truncate.
	OpTruncate
)

// String names the operation kind.
func (op Op) String() string {
	switch op {
	case OpAny:
		return "any"
	case OpOpen:
		return "open"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpTruncate:
		return "truncate"
	default:
		return "unknown"
	}
}

// Mode selects how a firing rule corrupts its operation.
type Mode uint8

const (
	// ModeFail makes the operation a no-op that returns the rule's error.
	ModeFail Mode = iota
	// ModePartial (writes only; ModeFail elsewhere) lets the first Partial
	// bytes reach the file, then returns the rule's error — a torn write
	// whose caller knows it failed.
	ModePartial
	// ModeSilentShort (writes only; ModeFail elsewhere) lets the first
	// Partial bytes reach the file but reports complete success — a lying
	// write. Only layers that re-read what they wrote (fsatomic.WriteFileFS,
	// the WAL header create path) can detect it, so test scripts restrict
	// this mode to paths with read-back verification.
	ModeSilentShort
)

// Rule is one scripted failpoint. Rules are pure data, so a fault script is
// reproducible from its literal (or from fuzz input bytes) with no hidden
// state: the same program against the same script faults the same operation.
type Rule struct {
	// Op is the operation kind to match; OpAny matches every kind.
	Op Op
	// Path, when non-empty, restricts the rule to operations whose path
	// contains it as a substring (renames match on either path).
	Path string
	// Nth is the 1-based matching occurrence to start firing on, counted
	// from when the rule was added. Zero means the first.
	Nth int
	// Times is how many matching occurrences to fire on from Nth onward.
	// Zero means once; negative means every one until the rule is removed.
	Times int
	// Mode selects the corruption applied.
	Mode Mode
	// Partial is the byte count let through by ModePartial/ModeSilentShort.
	Partial int
	// Err overrides the returned error; nil selects ENOSPC for open/write
	// and EIO for the rest — both classified transient by the service.
	Err error

	seen  int
	fired int
}

func (r *Rule) errFor(op Op, path string) error {
	err := r.Err
	if err == nil {
		switch op {
		case OpOpen, OpWrite:
			err = syscall.ENOSPC
		default:
			err = syscall.EIO
		}
	}
	return &os.PathError{Op: "faultfs " + op.String(), Path: path, Err: err}
}

type fault struct {
	mode    Mode
	partial int
	err     error
}

// Injector is an FS that forwards every operation to an inner filesystem
// (the real one, normally) unless a scripted Rule fires, in which case the
// operation fails — or lands torn — exactly as scripted. It also counts
// every fault-eligible operation, which lets a chaos sweep first measure a
// workload's write-site count with no rules armed and then re-run it once
// per site with `Rule{Nth: n}`. Safe for concurrent use.
type Injector struct {
	inner FS

	mu    sync.Mutex
	ops   int64
	rules []*Rule
}

// NewInjector wraps inner (nil selects OS) with an empty script.
func NewInjector(inner FS) *Injector {
	if inner == nil {
		inner = OS
	}
	return &Injector{inner: inner}
}

// Add arms a failpoint. The returned handle can be passed to Remove.
func (in *Injector) Add(r Rule) *Rule {
	in.mu.Lock()
	defer in.mu.Unlock()
	rule := r
	rule.seen, rule.fired = 0, 0
	in.rules = append(in.rules, &rule)
	return &rule
}

// Disarm removes one rule from the script; unknown handles are ignored.
func (in *Injector) Disarm(rule *Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, r := range in.rules {
		if r == rule {
			in.rules = append(in.rules[:i], in.rules[i+1:]...)
			return
		}
	}
}

// Clear disarms every rule — "the fault condition goes away".
func (in *Injector) Clear() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = nil
}

// Ops returns how many fault-eligible operations have been observed.
func (in *Injector) Ops() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.ops
}

// check records one eligible operation and returns the fault to apply, if
// any. At most one rule fires per operation (first match wins).
func (in *Injector) check(op Op, path string) *fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.ops++
	for _, r := range in.rules {
		if r.Op != OpAny && r.Op != op {
			continue
		}
		if r.Path != "" && !strings.Contains(path, r.Path) {
			continue
		}
		r.seen++
		nth := r.Nth
		if nth <= 0 {
			nth = 1
		}
		times := r.Times
		if times == 0 {
			times = 1
		}
		if r.seen < nth || (times > 0 && r.fired >= times) {
			continue
		}
		r.fired++
		return &fault{mode: r.Mode, partial: r.Partial, err: r.errFor(op, path)}
	}
	return nil
}

// OpenFile implements FS. Write-intent opens are fault-eligible; read-only
// opens pass through, but the returned handle still routes Sync/Write
// through the injector (directory fsyncs stay faultable).
func (in *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if flag&(os.O_WRONLY|os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND) != 0 {
		if flt := in.check(OpOpen, name); flt != nil {
			return nil, flt.err
		}
	}
	f, err := in.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, path: name, f: f}, nil
}

// Rename implements FS.
func (in *Injector) Rename(oldpath, newpath string) error {
	if flt := in.check(OpRename, oldpath+" -> "+newpath); flt != nil {
		return flt.err
	}
	return in.inner.Rename(oldpath, newpath)
}

// Remove implements FS.
func (in *Injector) Remove(name string) error {
	if flt := in.check(OpRemove, name); flt != nil {
		return flt.err
	}
	return in.inner.Remove(name)
}

// ReadFile implements FS (read path: never faulted).
func (in *Injector) ReadFile(name string) ([]byte, error) { return in.inner.ReadFile(name) }

// ReadDir implements FS (read path: never faulted).
func (in *Injector) ReadDir(name string) ([]os.DirEntry, error) { return in.inner.ReadDir(name) }

// injFile routes a file's write-path operations back through the injector.
type injFile struct {
	in   *Injector
	path string
	f    File
}

func (f *injFile) Write(p []byte) (int, error) {
	flt := f.in.check(OpWrite, f.path)
	if flt == nil {
		return f.f.Write(p)
	}
	n := flt.partial
	if n < 0 {
		n = 0
	}
	if n > len(p) {
		n = len(p)
	}
	switch flt.mode {
	case ModePartial:
		if n > 0 {
			if m, err := f.f.Write(p[:n]); err != nil {
				return m, flt.err
			}
		}
		return n, flt.err
	case ModeSilentShort:
		if n > 0 {
			f.f.Write(p[:n])
		}
		return len(p), nil
	default:
		return 0, flt.err
	}
}

func (f *injFile) Sync() error {
	if flt := f.in.check(OpSync, f.path); flt != nil {
		return flt.err
	}
	return f.f.Sync()
}

func (f *injFile) Truncate(size int64) error {
	if flt := f.in.check(OpTruncate, f.path); flt != nil {
		return flt.err
	}
	return f.f.Truncate(size)
}

func (f *injFile) Seek(offset int64, whence int) (int64, error) { return f.f.Seek(offset, whence) }

func (f *injFile) Close() error { return f.f.Close() }
