package ckpt

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"slices"
	"testing"

	"dynppr/internal/graph"
)

// dataEqual compares two checkpoints with bit-level float equality, so NaN
// payloads (legal bytes behind a valid checksum) still round-trip.
func dataEqual(a, b *Data) bool {
	if a.LSN != b.LSN ||
		math.Float64bits(a.Alpha) != math.Float64bits(b.Alpha) ||
		math.Float64bits(a.Epsilon) != math.Float64bits(b.Epsilon) ||
		!csrEqual(a.CSR, b.CSR) ||
		len(a.Sources) != len(b.Sources) {
		return false
	}
	for i := range a.Sources {
		sa, sb := a.Sources[i], b.Sources[i]
		if sa.Source != sb.Source || sa.Epoch != sb.Epoch || sa.Auto != sb.Auto ||
			len(sa.Estimates) != len(sb.Estimates) || len(sa.Residuals) != len(sb.Residuals) {
			return false
		}
		for j := range sa.Estimates {
			if math.Float64bits(sa.Estimates[j]) != math.Float64bits(sb.Estimates[j]) ||
				math.Float64bits(sa.Residuals[j]) != math.Float64bits(sb.Residuals[j]) {
				return false
			}
		}
	}
	return true
}

// csrEqual compares two CSR images by their out arrays, which determine the
// in arrays; slices.Equal treats nil and empty target arrays as equal
// (decode always allocates, snapshots may not).
func csrEqual(a, b *graph.CSR) bool {
	if a == nil || b == nil {
		return a == b
	}
	aOff, aTgt := a.RawOut()
	bOff, bTgt := b.RawOut()
	return slices.Equal(aOff, bOff) && slices.Equal(aTgt, bTgt)
}

// FuzzCSRImageRead drives Decode, the one checkpoint reader, with arbitrary
// bytes. The strict-reader contract: truncation, checksum damage, version
// skew, the retired DPPRCKP1, DPPRCKP2 and DPPRCKP3 formats, forged counts,
// malformed CSR structure (unsorted or duplicate rows) and auto marks other
// than 0 or 1 must all return
// ErrInvalid — never a panic and never an allocation proportional to a
// forged count rather than the actual input size — and any accepted image
// must carry the one magic, re-encode to exactly its own bytes, and wrap
// into a consistent graph with no re-insertion.
func FuzzCSRImageRead(f *testing.F) {
	valid, err := Encode(sampleData())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // truncated: checksum and arrays cut off
	f.Add(valid[:30])           // truncated inside the CSR arrays
	f.Add([]byte("DPPRCKP4"))
	f.Add([]byte("DPPRCKP4\x04\x00\x00\x00junk"))

	// Checksum damage: flip one bit mid-array.
	flip := append([]byte(nil), valid...)
	flip[len(flip)/2] ^= 0x10
	f.Add(flip)

	// Version skew: the magic with a future version and a recomputed
	// checksum — the version gate must reject it, not the CRC.
	future := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(future[8:], version+1)
	f.Add(resealCRC(future))

	// The retired v1 magic in front of a valid body and checksum.
	skew := append([]byte(nil), valid...)
	copy(skew, "DPPRCKP1")
	f.Add(resealCRC(skew))

	// Forged vertex count far past the input size: the count guard must
	// reject it before allocating.
	forged := append([]byte(nil), valid...)
	forged[36] = 0xFF // n uvarint lives right after the 36-byte header
	f.Add(resealCRC(forged))

	// Empty graph: n=0, m=0 is a legal image.
	empty, err := Encode(&Data{Alpha: 0.5, Epsilon: 1, CSR: csrOf()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Decode(data)
		if err != nil {
			return
		}
		if string(data[:len(magic)]) != magic {
			t.Fatalf("accepted an image with magic %q", data[:len(magic)])
		}
		buf, err := Encode(d)
		if err != nil {
			t.Fatalf("re-encode of accepted checkpoint: %v", err)
		}
		if !bytes.Equal(buf, data) {
			t.Fatalf("re-encode of an accepted checkpoint changed its bytes:\n%x\n%x", data, buf)
		}
		d2, err := Decode(buf)
		if err != nil {
			t.Fatalf("re-decode of accepted checkpoint: %v", err)
		}
		if !dataEqual(d, d2) {
			t.Fatalf("round trip changed the checkpoint:\n%+v\n%+v", d, d2)
		}
		// An accepted image must already satisfy every CSR invariant: the
		// zero-copy recovery graph it backs is consistent as-is.
		g := graph.FromCSR(d.CSR)
		if cerr := g.CheckConsistency(); cerr != nil {
			t.Fatalf("accepted CSR image is inconsistent: %v", cerr)
		}
		for _, s := range d.Sources {
			if len(s.Estimates) != len(s.Residuals) || int(s.Source) >= len(s.Estimates) {
				t.Fatalf("decoded source %d with malformed vectors", s.Source)
			}
		}
	})
}

// resealCRC recomputes the trailing checksum so damage to the body tests the
// semantic gates rather than the CRC.
func resealCRC(buf []byte) []byte {
	body := buf[:len(buf)-4]
	binary.LittleEndian.PutUint32(buf[len(buf)-4:], crc32.Checksum(body, castagnoli))
	return buf
}
