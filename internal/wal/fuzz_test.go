package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dynppr/internal/stream"
)

// ReadAll strictly parses a complete log image: junk bytes, truncated tails
// and bad checksums are all errors, never a silent truncation and never a
// panic. It is the surface the fuzz harness drives.
func ReadAll(data []byte) (base uint64, recs []Record, err error) {
	base, recs, valid, err := scan(data)
	if err != nil {
		return 0, nil, err
	}
	if valid != int64(len(data)) {
		return 0, nil, fmt.Errorf("wal: torn tail: %d trailing bytes do not form a record", int64(len(data))-valid)
	}
	return base, recs, nil
}

// buildImage writes records through the real append path and returns the
// file bytes — the canonical well-formed seeds.
func buildImage(f *testing.F, base uint64, build func(*Log)) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), "seed.log")
	l, _, err := OpenOrCreate(path, base, Options{})
	if err != nil {
		f.Fatal(err)
	}
	build(l)
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	os.Remove(path)
	return data
}

// FuzzWALRead drives the strict log reader with arbitrary bytes. The
// contract under fuzz: ReadAll returns either an error or a record list that
// survives a write/read round trip through the real append path — junk
// bytes, truncated tails and bad CRCs must error, never panic, and forged
// counts must never force allocations beyond the input size.
func FuzzWALRead(f *testing.F) {
	valid := buildImage(f, 5, func(l *Log) {
		l.AppendBatch(stream.Batch{
			{U: 1, V: 2, Op: stream.Insert},
			{U: 2, V: 1, Op: stream.Delete},
		})
		l.Append(Record{Type: RecordAddSource, Source: 7})
		l.Append(Record{Type: RecordRemoveSource, Source: 7})
		l.AppendBatch(nil) // empty batch is a valid record
	})
	f.Add(valid)
	f.Add(valid[:headerSize])                                 // empty log
	f.Add(valid[:len(valid)-3])                               // torn tail
	f.Add(valid[:headerSize+4])                               // torn frame
	f.Add([]byte{})                                           // empty input
	f.Add([]byte("DPPRWAL1"))                                 // magic but no base
	f.Add([]byte("DPPRWAL0\x00\x00\x00\x00\x00\x00\x00\x00")) // wrong magic byte
	crcFlip := append([]byte(nil), valid...)
	crcFlip[len(crcFlip)-1] ^= 0x01
	f.Add(crcFlip)
	midFlip := append([]byte(nil), valid...)
	midFlip[headerSize+frameSize] ^= 0x80 // damage the first payload, valid records follow
	f.Add(midFlip)
	f.Add([]byte("\x00\x01\x02junk that is not a wal at all\xff\xfe"))

	f.Fuzz(func(t *testing.T, data []byte) {
		base, recs, err := ReadAll(data)
		if err != nil {
			return
		}
		// Accepted input: every record must be well-formed and re-encodable
		// to an image the reader parses back identically.
		path := filepath.Join(t.TempDir(), "roundtrip.log")
		l, got, err := OpenOrCreate(path, base, Options{})
		if err != nil {
			t.Fatalf("create for round trip: %v", err)
		}
		if len(got) != 0 {
			t.Fatalf("fresh log has %d records", len(got))
		}
		for _, rec := range recs {
			var lsn uint64
			var aerr error
			switch rec.Type {
			case RecordBatch, RecordAddSource, RecordRemoveSource, RecordPromote:
				if rec.Source < 0 {
					t.Fatalf("decoded negative source %d", rec.Source)
				}
				lsn, aerr = l.Append(rec)
			default:
				t.Fatalf("decoded unknown record type %d", rec.Type)
			}
			if aerr != nil {
				t.Fatalf("re-append of accepted record: %v", aerr)
			}
			if lsn != rec.LSN {
				t.Fatalf("round-trip LSN %d, want %d", lsn, rec.LSN)
			}
			for _, u := range rec.Batch {
				if u.U < 0 || u.V < 0 {
					t.Fatalf("decoded negative vertex in %+v", u)
				}
				if u.Op != stream.Insert && u.Op != stream.Delete {
					t.Fatalf("decoded bad op %v", u.Op)
				}
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		reread, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		base2, recs2, err := ReadAll(reread)
		if err != nil || base2 != base || len(recs2) != len(recs) {
			t.Fatalf("round trip changed the log: base %d->%d, %d->%d records, err %v",
				base, base2, len(recs), len(recs2), err)
		}
		for i := range recs {
			a, b := recs[i], recs2[i]
			if a.LSN != b.LSN || a.Type != b.Type || a.Source != b.Source || len(a.Batch) != len(b.Batch) {
				t.Fatalf("record %d changed in round trip: %+v -> %+v", i, a, b)
			}
			for j := range a.Batch {
				if a.Batch[j] != b.Batch[j] {
					t.Fatalf("record %d update %d changed: %+v -> %+v", i, j, a.Batch[j], b.Batch[j])
				}
			}
		}
	})
}
