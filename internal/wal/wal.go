// Package wal implements the write-ahead log of the durable serving layer: an
// append-only file of length-prefixed, CRC32-checksummed records journaling
// every mutation a Service accepts — edge-update batches, source additions,
// promotions and removals — so that accumulated state survives a crash.
//
// # File layout
//
// A log file starts with a 20-byte header
//
//	magic   [8]byte  "DPPRWAL1" (format version baked into the last byte)
//	baseLSN uint64   little-endian
//	crc     uint32   little-endian, CRC-32C of the preceding 16 bytes
//
// followed by zero or more records
//
//	length  uint32   little-endian, payload bytes
//	crc     uint32   little-endian, CRC-32C (Castagnoli) of the payload
//	payload [length]byte
//
// The LSN (log sequence number) of a record is implicit: baseLSN plus its
// index in the file. Checkpoints record the LSN their state covers; recovery
// replays only records with a higher LSN, and checkpointing rotates the log
// to a fresh file whose baseLSN equals the covered LSN, so the two files can
// never disagree about which updates a record index refers to.
//
// # Torn tails versus corruption
//
// A crash can tear the final record: the process died between the write and
// the (optional) fsync, leaving a short or bit-damaged tail. Open treats any
// unparseable suffix that extends to end-of-file as a torn tail and truncates
// it — those updates were never acknowledged as durable. A damaged record
// that is *followed by further bytes* cannot be a torn tail (appends are
// strictly sequential), so Open refuses the file instead of silently
// dropping acknowledged records.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"dynppr/internal/faultfs"
	"dynppr/internal/fsatomic"
	"dynppr/internal/graph"
	"dynppr/internal/stream"
)

const (
	magic      = "DPPRWAL1"
	headerSize = 8 + 8 + 4 // magic + baseLSN + header CRC
	// frameSize is the per-record framing overhead: length + crc.
	frameSize = 4 + 4
	// MaxRecordSize bounds one record's payload; larger length prefixes are
	// treated as damage. 64 MiB holds tens of millions of updates, far
	// beyond any batch the write pipeline accepts.
	MaxRecordSize = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a damaged record that cannot be a torn tail (valid data
// follows it) or a record whose checksum passes but whose payload does not
// decode. Recovery must not silently skip such records: they were
// acknowledged as durable.
var ErrCorrupt = errors.New("wal: corrupt record")

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged mutation
	// survives power loss. This is the durable default.
	SyncAlways SyncPolicy = iota
	// SyncNone never fsyncs on append (only on rotation and close): the OS
	// decides when pages reach disk. An OS crash can lose the most recent
	// acknowledged mutations, but never corrupts the recoverable prefix.
	SyncNone
)

// String names the policy ("always"/"none").
func (p SyncPolicy) String() string {
	if p == SyncNone {
		return "none"
	}
	return "always"
}

// Options configure a Log.
type Options struct {
	// Sync is the fsync policy for appends.
	Sync SyncPolicy
	// FS overrides the filesystem the log writes through; nil selects the
	// real one. Tests inject write-path faults here.
	FS faultfs.FS
}

func (o Options) fsys() faultfs.FS {
	if o.FS != nil {
		return o.FS
	}
	return faultfs.OS
}

// RecordType distinguishes the journaled mutation kinds.
type RecordType uint8

const (
	// RecordBatch journals one edge-update batch, no-op updates included,
	// so replay reproduces the original ApplyBatch call exactly.
	RecordBatch RecordType = 1
	// RecordAddSource journals the start of tracking for a source.
	RecordAddSource RecordType = 2
	// RecordRemoveSource journals the end of tracking for a source.
	RecordRemoveSource RecordType = 3
	// RecordPromote journals the on-demand tier's promotion of a source: a
	// RecordAddSource whose source carries the auto-promoted mark, so a later
	// promotion may evict it. The eviction is journaled as its own
	// RecordRemoveSource.
	RecordPromote RecordType = 4
)

// Record is one decoded log entry.
type Record struct {
	// LSN is the record's log sequence number (baseLSN + index in file).
	LSN uint64
	// Type selects which of the payload fields is meaningful.
	Type RecordType
	// Batch is the update batch of a RecordBatch.
	Batch stream.Batch
	// Source is the vertex of a RecordAddSource, RecordRemoveSource or
	// RecordPromote.
	Source graph.VertexID
	// Offset is the file offset of the record's length prefix.
	Offset int64
	// EncodedLen is the record's full on-disk size (framing + payload).
	EncodedLen int
}

// Log is an append-only journal open for writing. It is not safe for
// concurrent use: the Service serializes every append on its write pipeline.
type Log struct {
	path string
	opts Options
	fs   faultfs.FS
	f    faultfs.File
	base uint64
	next uint64
	size int64
	buf  []byte // encoding scratch, reused across appends
}

// OpenOrCreate opens the log at path for appending, scanning existing
// records and truncating a torn tail, and returns the records that survived
// so recovery can replay them. A missing file — or one whose 16-byte header
// itself was torn — is (re)created empty with createBase as its baseLSN.
// Mid-file damage returns ErrCorrupt.
func OpenOrCreate(path string, createBase uint64, opts Options) (*Log, []Record, error) {
	fs := opts.fsys()
	data, err := fs.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) || (err == nil && len(data) < headerSize) {
		l, cerr := create(path, createBase, opts)
		return l, nil, cerr
	}
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	base, recs, valid, err := scan(data)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %s: %w", path, err)
	}
	f, err := fs.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if valid < int64(len(data)) {
		// Torn tail: discard the unacknowledged suffix before appending.
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Log{
		path: path, opts: opts, fs: fs, f: f,
		base: base, next: base + uint64(len(recs)), size: valid,
	}, recs, nil
}

// create writes a fresh log (header only) at path with
// fsatomic.WriteFileFS, so a crash mid-create never leaves a half-written
// header behind and a silent short write is caught by its read-back — one
// here would otherwise relabel (or strand) every subsequent record — then
// reopens the file for appending.
func create(path string, base uint64, opts Options) (*Log, error) {
	fs := opts.fsys()
	// The header CRC covers the baseLSN: record payloads carry their own
	// checksums, and without this one a flipped baseLSN bit would silently
	// relabel every record's LSN — recovery would then skip acknowledged
	// mutations (or replay covered ones) without any error.
	var hdr [headerSize]byte
	copy(hdr[:], magic)
	binary.LittleEndian.PutUint64(hdr[8:], base)
	binary.LittleEndian.PutUint32(hdr[16:], crc32.Checksum(hdr[:16], castagnoli))
	if err := fsatomic.WriteFileFS(fs, path, hdr[:]); err != nil {
		return nil, err
	}
	// The append handle is opened under the final name, so path-scoped
	// fault rules and error messages attribute every append to the log.
	f, err := fs.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(headerSize, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{path: path, opts: opts, fs: fs, f: f, base: base, next: base, size: headerSize}, nil
}

// BaseLSN returns the LSN of the first record slot of the current file.
func (l *Log) BaseLSN() uint64 { return l.base }

// NextLSN returns the LSN the next append will receive — equivalently, the
// total number of mutations journaled across all rotations.
func (l *Log) NextLSN() uint64 { return l.next }

// Size returns the current file size in bytes.
func (l *Log) Size() int64 { return l.size }

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// frameReserve returns the reusable scratch buffer with frameSize bytes
// reserved at the front for the length/CRC header, which append backfills
// once the payload is encoded behind it — one buffer, one Write, no
// per-record allocation.
func (l *Log) frameReserve() []byte {
	return append(l.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0)
}

// AppendBatch journals an edge-update batch and returns its LSN.
func (l *Log) AppendBatch(b stream.Batch) (uint64, error) {
	return l.Append(Record{Type: RecordBatch, Batch: b})
}

// Append journals rec's type and payload and returns the LSN it received;
// rec's own LSN, Offset and EncodedLen are ignored. A batch's updates that
// are not representable are left out; a source must be non-negative.
func (l *Log) Append(rec Record) (uint64, error) {
	buf := append(l.frameReserve(), byte(rec.Type))
	switch rec.Type {
	case RecordBatch:
		buf = appendBatchPayload(buf, rec.Batch)
	case RecordAddSource, RecordRemoveSource, RecordPromote:
		if rec.Source < 0 {
			return 0, fmt.Errorf("wal: source %d is not journalable", rec.Source)
		}
		buf = binary.AppendUvarint(buf, uint64(rec.Source))
	default:
		return 0, fmt.Errorf("wal: unknown record type %d", rec.Type)
	}
	return l.append(buf)
}

// append backfills the frame header of a buffer built by frameReserve and
// writes the whole record with one Write call — a torn write can only
// shorten the tail, which Open truncates.
func (l *Log) append(buf []byte) (uint64, error) {
	l.buf = buf // keep the grown scratch buffer
	payload := buf[frameSize:]
	if len(payload) > MaxRecordSize {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d byte limit", len(payload), MaxRecordSize)
	}
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, castagnoli))
	if _, err := l.f.Write(buf); err != nil {
		l.rollback()
		return 0, err
	}
	if l.opts.Sync == SyncAlways {
		if err := l.f.Sync(); err != nil {
			// The record bytes may already be in the file; reporting failure
			// while leaving them behind would let recovery resurrect a
			// mutation the caller was told was rejected. Best-effort
			// truncate back to the pre-append size closes that window.
			l.rollback()
			return 0, err
		}
	}
	lsn := l.next
	l.next++
	l.size += int64(len(buf))
	return lsn, nil
}

// rollback discards a failed append's partial bytes so the on-disk log
// matches what the caller was acknowledged. Errors are swallowed: the
// Service degrades persistence after any append error — no further appends
// land on this file before a rotation replaces it — and Open truncates
// whatever remains if the process dies first.
func (l *Log) rollback() {
	if err := l.f.Truncate(l.size); err != nil {
		return
	}
	_, _ = l.f.Seek(l.size, io.SeekStart)
}

// Policy returns the log's append fsync policy.
func (l *Log) Policy() SyncPolicy { return l.opts.Sync }

// Rotate replaces the log with a fresh, empty file whose baseLSN is newBase,
// via a temp file and atomic rename. It is called immediately after a
// checkpoint covering every journaled record (newBase must equal NextLSN):
// the dropped records are all captured by the checkpoint, and a crash at any
// point leaves either the old file (whose covered prefix recovery skips by
// LSN) or the new one.
func (l *Log) Rotate(newBase uint64) error {
	if newBase != l.next {
		return fmt.Errorf("wal: rotate to base %d would lose records (next LSN %d)", newBase, l.next)
	}
	fresh, err := create(l.path, newBase, l.opts)
	if err != nil {
		return err
	}
	old := l.f
	l.f = fresh.f
	l.base = newBase
	l.size = fresh.size
	return old.Close()
}

// SelfCheck re-reads the log file from disk and verifies it parses back to
// exactly the in-memory view: same baseLSN, same record count, same size,
// no torn tail. The recovery probe runs it after rotating onto a fresh file
// so a heal is only declared once the new log is proven readable.
func (l *Log) SelfCheck() error {
	data, err := l.fs.ReadFile(l.path)
	if err != nil {
		return fmt.Errorf("wal: self-check %s: %w", l.path, err)
	}
	base, recs, valid, err := scan(data)
	if err != nil {
		return fmt.Errorf("wal: self-check %s: %w", l.path, err)
	}
	if valid != int64(len(data)) {
		return fmt.Errorf("wal: self-check %s: %d torn tail bytes", l.path, int64(len(data))-valid)
	}
	if base != l.base || valid != l.size || base+uint64(len(recs)) != l.next {
		return fmt.Errorf("wal: self-check %s: on disk base %d, %d records, %d bytes; in memory base %d, next %d, %d bytes",
			l.path, base, len(recs), valid, l.base, l.next, l.size)
	}
	return nil
}

// Close flushes and closes the log file.
func (l *Log) Close() error {
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// ---------------------------------------------------------------------------
// Payload encoding. Format: one type byte, then
//
//	RecordBatch:                uvarint count, count × (op byte, uvarint u, uvarint v)
//	RecordAdd/Remove/Promote:   uvarint source
//
// with op 0 = insert, 1 = delete.

const (
	opInsert byte = 0
	opDelete byte = 1
)

// representable reports whether an update can be journaled: a recognized op
// and non-negative endpoints. Unrepresentable updates are always no-ops to
// apply (the graph skips them), so a journaled batch leaves them out and
// replays to the same state — whereas mis-encoding them would make replay
// diverge (a zero-valued Op read back as an insert) or refuse the file (a
// negative id read back as a huge uvarint).
func representable(u stream.Update) bool {
	return (u.Op == stream.Insert || u.Op == stream.Delete) && u.U >= 0 && u.V >= 0
}

// appendBatchPayload encodes b's representable updates.
func appendBatchPayload(buf []byte, b stream.Batch) []byte {
	count := 0
	for _, u := range b {
		if representable(u) {
			count++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(count))
	for _, u := range b {
		if !representable(u) {
			continue
		}
		op := opInsert
		if u.Op == stream.Delete {
			op = opDelete
		}
		buf = append(buf, op)
		buf = binary.AppendUvarint(buf, uint64(u.U))
		buf = binary.AppendUvarint(buf, uint64(u.V))
	}
	return buf
}

// decodePayload strictly parses one record payload. Every malformation is an
// error: the payload sits behind a valid checksum, so damage here is real
// corruption, not a torn write.
func decodePayload(lsn uint64, p []byte) (Record, error) {
	rec := Record{LSN: lsn}
	if len(p) == 0 {
		return rec, fmt.Errorf("empty payload")
	}
	rec.Type = RecordType(p[0])
	p = p[1:]
	switch rec.Type {
	case RecordBatch:
		count, n := binary.Uvarint(p)
		if n <= 0 {
			return rec, fmt.Errorf("bad batch count varint")
		}
		p = p[n:]
		// Each update occupies at least 3 bytes, so a forged count cannot
		// force a huge allocation.
		if count > uint64(len(p))/3+1 {
			return rec, fmt.Errorf("batch count %d exceeds payload size", count)
		}
		rec.Batch = make(stream.Batch, 0, count)
		for i := uint64(0); i < count; i++ {
			if len(p) == 0 {
				return rec, fmt.Errorf("batch truncated at update %d", i)
			}
			var op stream.Op
			switch p[0] {
			case opInsert:
				op = stream.Insert
			case opDelete:
				op = stream.Delete
			default:
				return rec, fmt.Errorf("unknown op byte %d", p[0])
			}
			p = p[1:]
			u, err := takeVertex(&p)
			if err != nil {
				return rec, fmt.Errorf("update %d: %w", i, err)
			}
			v, err := takeVertex(&p)
			if err != nil {
				return rec, fmt.Errorf("update %d: %w", i, err)
			}
			rec.Batch = append(rec.Batch, stream.Update{U: u, V: v, Op: op})
		}
		if len(p) != 0 {
			return rec, fmt.Errorf("%d trailing bytes after batch", len(p))
		}
	case RecordAddSource, RecordRemoveSource, RecordPromote:
		s, err := takeVertex(&p)
		if err != nil {
			return rec, err
		}
		if len(p) != 0 {
			return rec, fmt.Errorf("%d trailing bytes after source", len(p))
		}
		rec.Source = s
	default:
		return rec, fmt.Errorf("unknown record type %d", rec.Type)
	}
	return rec, nil
}

// takeVertex consumes one uvarint vertex id, rejecting values beyond the
// int32 id space.
func takeVertex(p *[]byte) (graph.VertexID, error) {
	x, n := binary.Uvarint(*p)
	if n <= 0 {
		return 0, fmt.Errorf("bad vertex varint")
	}
	*p = (*p)[n:]
	if x > uint64(1<<31-1) {
		return 0, fmt.Errorf("vertex id %d overflows int32", x)
	}
	return graph.VertexID(x), nil
}
