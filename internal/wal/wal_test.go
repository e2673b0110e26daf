package wal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dynppr/internal/graph"
	"dynppr/internal/stream"
)

func testBatch(i int) stream.Batch {
	return stream.Batch{
		{U: graph.VertexID(i), V: graph.VertexID(i + 1), Op: stream.Insert},
		{U: graph.VertexID(i + 1), V: graph.VertexID(i), Op: stream.Delete},
		{U: 0, V: graph.VertexID(1 << 20), Op: stream.Insert},
	}
}

// appendMixed journals n records cycling through the three record types and
// returns what was appended, in order.
func appendMixed(t *testing.T, l *Log, n int) []Record {
	t.Helper()
	var want []Record
	for i := 0; i < n; i++ {
		var (
			lsn uint64
			err error
			rec Record
		)
		switch i % 3 {
		case 0:
			b := testBatch(i)
			lsn, err = l.AppendBatch(b)
			rec = Record{Type: RecordBatch, Batch: b}
		case 1:
			rec = Record{Type: RecordAddSource, Source: graph.VertexID(i)}
			lsn, err = l.Append(rec)
		default:
			rec = Record{Type: RecordRemoveSource, Source: graph.VertexID(i)}
			lsn, err = l.Append(rec)
		}
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		rec.LSN = lsn
		want = append(want, rec)
	}
	return want
}

// sameRecords compares decoded content, ignoring the file-position fields.
func sameRecords(got, want []Record) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		g.Offset, g.EncodedLen = 0, 0
		w.Offset, w.EncodedLen = 0, 0
		if g.LSN != w.LSN || g.Type != w.Type || g.Source != w.Source || !reflect.DeepEqual(g.Batch, w.Batch) {
			return false
		}
	}
	return true
}

func TestAppendReopenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, recs, err := OpenOrCreate(path, 7, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || l.BaseLSN() != 7 || l.NextLSN() != 7 {
		t.Fatalf("fresh log state wrong: %d recs, base %d, next %d", len(recs), l.BaseLSN(), l.NextLSN())
	}
	want := appendMixed(t, l, 9)
	if want[0].LSN != 7 || l.NextLSN() != 16 {
		t.Fatalf("LSN accounting wrong: first %d, next %d", want[0].LSN, l.NextLSN())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, got, err := OpenOrCreate(path, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !sameRecords(got, want) {
		t.Fatalf("reopen mismatch:\n got %+v\nwant %+v", got, want)
	}
	if l2.BaseLSN() != 7 || l2.NextLSN() != 16 {
		t.Fatalf("reopened LSNs wrong: base %d next %d", l2.BaseLSN(), l2.NextLSN())
	}
	// The strict reader agrees with the tolerant one on an intact file.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	base, strict, err := ReadAll(data)
	if err != nil || base != 7 || !sameRecords(strict, want) {
		t.Fatalf("ReadAll disagrees: base %d err %v", base, err)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	for name, tear := range map[string]func([]byte) []byte{
		"incomplete-frame":  func(b []byte) []byte { return append(b, 0x01, 0x02, 0x03) },
		"length-past-eof":   func(b []byte) []byte { return append(b, 0xff, 0x00, 0x00, 0x00, 1, 2, 3, 4, 9) },
		"zero-length-frame": func(b []byte) []byte { return append(b, make([]byte, frameSize)...) },
		"bad-crc-last-record": func(b []byte) []byte {
			b[len(b)-1] ^= 0x40 // flip a payload bit of the final record
			return b
		},
		"half-record": func(b []byte) []byte { return b[:len(b)-3] },
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			l, _, err := OpenOrCreate(path, 0, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := appendMixed(t, l, 5)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tear(append([]byte(nil), data...)), 0o644); err != nil {
				t.Fatal(err)
			}

			// The strict reader must refuse the torn image.
			torn, _ := os.ReadFile(path)
			if _, _, err := ReadAll(torn); err == nil {
				t.Fatal("ReadAll accepted a torn tail")
			}

			l2, got, err := OpenOrCreate(path, 0, Options{})
			if err != nil {
				t.Fatalf("open with torn tail: %v", err)
			}
			wantSurviving := want
			if name == "bad-crc-last-record" || name == "half-record" {
				wantSurviving = want[:4]
			}
			if !sameRecords(got, wantSurviving) {
				t.Fatalf("surviving records wrong: got %d want %d", len(got), len(wantSurviving))
			}
			// Appending after truncation works and the file is clean again.
			if _, err := l2.Append(Record{Type: RecordAddSource, Source: 99}); err != nil {
				t.Fatal(err)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			clean, _ := os.ReadFile(path)
			if _, recs, err := ReadAll(clean); err != nil || len(recs) != len(wantSurviving)+1 {
				t.Fatalf("post-truncation append not clean: %d recs, %v", len(recs), err)
			}
		})
	}
}

func TestMidFileCorruptionRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, err := OpenOrCreate(path, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := appendMixed(t, l, 6)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload bit of the SECOND record: acknowledged data follows it,
	// so this is corruption, not a torn tail.
	_, all, _ := ReadAll(data)
	if len(all) != len(recs) {
		t.Fatal("setup failed")
	}
	off := all[1].Offset + frameSize
	data[off] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenOrCreate(path, 0, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open of mid-file corruption: got %v, want ErrCorrupt", err)
	}
	if _, _, _, err := ScanFile(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ScanFile of mid-file corruption: got %v, want ErrCorrupt", err)
	}
}

func TestRotate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, _, err := OpenOrCreate(path, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendMixed(t, l, 4)
	if err := l.Rotate(3); err == nil {
		t.Fatal("rotate below NextLSN must be refused")
	}
	if err := l.Rotate(l.NextLSN()); err != nil {
		t.Fatal(err)
	}
	if l.BaseLSN() != 4 || l.NextLSN() != 4 || l.Size() != headerSize {
		t.Fatalf("post-rotate state wrong: base %d next %d size %d", l.BaseLSN(), l.NextLSN(), l.Size())
	}
	// Appends continue with monotone LSNs in the fresh file.
	lsn, err := l.Append(Record{Type: RecordAddSource, Source: 1})
	if err != nil || lsn != 4 {
		t.Fatalf("post-rotate append: lsn %d err %v", lsn, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := OpenOrCreate(path, 0, Options{})
	if err != nil || len(recs) != 1 || recs[0].LSN != 4 {
		t.Fatalf("rotated file reload wrong: %d recs err %v", len(recs), err)
	}
}

func TestHeaderTornRecreates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, []byte("DPPRWAL1\x01\x02"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs, err := OpenOrCreate(path, 42, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(recs) != 0 || l.BaseLSN() != 42 {
		t.Fatalf("torn header not recreated at createBase: %d recs base %d", len(recs), l.BaseLSN())
	}
}

// TestHeaderCRCProtectsBaseLSN: a bit flip in the baseLSN would silently
// relabel every record's LSN (recovery would skip or replay the wrong
// suffix), so the header carries its own checksum and damage refuses the
// file instead.
func TestHeaderCRCProtectsBaseLSN(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, err := OpenOrCreate(path, 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendMixed(t, l, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	data[9] ^= 0x01 // flip a baseLSN bit; records are untouched
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadAll(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadAll with flipped baseLSN: got %v, want ErrCorrupt", err)
	}
	if _, _, err := OpenOrCreate(path, 0, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with flipped baseLSN: got %v, want ErrCorrupt", err)
	}
}

func TestBadMagicRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	data := make([]byte, headerSize)
	copy(data, "NOTAWAL0")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenOrCreate(path, 0, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: got %v, want ErrCorrupt", err)
	}
}

// TestImplausibleLengthWithSuffixIsCorruption: a length value the writer
// never produces (0 or beyond MaxRecordSize), followed by any further bytes,
// cannot be a torn tail — e.g. a bit flip in an acknowledged record's length
// field would make every later record unreachable — so scan must refuse the
// file instead of silently truncating acknowledged data away.
func TestImplausibleLengthWithSuffixIsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, err := OpenOrCreate(path, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendMixed(t, l, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	for name, frame := range map[string]uint32{
		"zero-length":      0,
		"oversized-length": MaxRecordSize + 1,
	} {
		for suffixName, suffix := range map[string][]byte{
			"small-suffix": make([]byte, 3),
			"big-suffix":   make([]byte, frameSize+MaxRecordSize+1),
		} {
			t.Run(name+"/"+suffixName, func(t *testing.T) {
				bad := append([]byte(nil), data...)
				var hdr [frameSize]byte
				binary.LittleEndian.PutUint32(hdr[:], frame)
				bad = append(bad, hdr[:]...)
				bad = append(bad, suffix...)
				if _, _, err := ReadAll(bad); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("ReadAll: got %v, want ErrCorrupt", err)
				}
				if _, _, _, err := scan(bad); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("scan: got %v, want ErrCorrupt", err)
				}
			})
		}
	}
	// Flipping an acknowledged record's length field mid-file must likewise
	// refuse, not truncate.
	_, recs, err := ReadAll(data)
	if err != nil || len(recs) != 2 {
		t.Fatal("setup failed")
	}
	flip := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(flip[recs[0].Offset:], 0)
	if _, _, _, err := scan(flip); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped mid-file length: got %v, want ErrCorrupt", err)
	}
}

func TestOversizedLengthPrefixIsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, err := OpenOrCreate(path, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendMixed(t, l, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	var frame [frameSize]byte
	binary.LittleEndian.PutUint32(frame[:], uint32(MaxRecordSize+1))
	data = append(data, frame[:]...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs, err := OpenOrCreate(path, 0, Options{})
	if err != nil || len(recs) != 2 {
		t.Fatalf("oversized tail frame: %d recs, %v", len(recs), err)
	}
}
