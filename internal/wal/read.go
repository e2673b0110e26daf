package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// scan parses a full log image. It returns the baseLSN, the records of the
// longest valid prefix, and the byte length of that prefix. An unparseable
// suffix extending to end-of-image is reported by validSize < len(data)
// (torn tail, no error); a damaged record with valid data after it — or a
// checksummed payload that does not decode — returns ErrCorrupt.
func scan(data []byte) (base uint64, recs []Record, validSize int64, err error) {
	if len(data) < headerSize {
		return 0, nil, 0, fmt.Errorf("%w: %d-byte file is shorter than the header", ErrCorrupt, len(data))
	}
	if string(data[:8]) != magic {
		return 0, nil, 0, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:8])
	}
	if got := binary.LittleEndian.Uint32(data[16:headerSize]); got != crc32.Checksum(data[:16], castagnoli) {
		return 0, nil, 0, fmt.Errorf("%w: header checksum mismatch (baseLSN untrustworthy)", ErrCorrupt)
	}
	base = binary.LittleEndian.Uint64(data[8:16])
	off := int64(headerSize)
	lsn := base
	for {
		rem := int64(len(data)) - off
		if rem == 0 {
			return base, recs, off, nil
		}
		if rem < frameSize {
			return base, recs, off, nil // torn: incomplete frame
		}
		length := int64(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if length == 0 || length > MaxRecordSize {
			// A length value the writer never produces. If the frame header
			// is the last thing in the file this is a torn header flush;
			// with anything after it, the bytes beyond may be acknowledged
			// records whose boundary we can no longer find (e.g. a bit flip
			// in this very length field) — refuse the file rather than
			// silently truncating them away.
			if rem == frameSize {
				return base, recs, off, nil
			}
			return base, recs, off, fmt.Errorf(
				"%w: implausible length prefix %d at offset %d with %d bytes following (lsn %d)",
				ErrCorrupt, length, off, rem-frameSize, lsn)
		}
		if frameSize+length > rem {
			// A plausible length whose payload runs past end-of-file: the
			// classic torn append — truncate.
			return base, recs, off, nil
		}
		payload := data[off+frameSize : off+frameSize+length]
		if crc32.Checksum(payload, castagnoli) != crc {
			if off+frameSize+length == int64(len(data)) {
				return base, recs, off, nil // torn: bit-damaged final record
			}
			return base, recs, off, fmt.Errorf("%w: bad checksum at offset %d (lsn %d)", ErrCorrupt, off, lsn)
		}
		rec, derr := decodePayload(lsn, payload)
		if derr != nil {
			return base, recs, off, fmt.Errorf("%w: offset %d (lsn %d): %v", ErrCorrupt, off, lsn, derr)
		}
		rec.Offset = off
		rec.EncodedLen = int(frameSize + length)
		recs = append(recs, rec)
		off += frameSize + length
		lsn++
	}
}

// ScanFile reads the log at path tolerantly: records of the longest valid
// prefix are returned together with that prefix's byte length, a torn tail
// is not an error, and mid-file damage is ErrCorrupt. The file is not
// modified. A missing file returns os.ErrNotExist.
func ScanFile(path string) (base uint64, recs []Record, validSize int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, 0, err
	}
	return scan(data)
}
