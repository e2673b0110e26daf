// Package ckpt reads and writes checkpoints of the durable serving layer: a
// versioned binary snapshot of the dynamic graph, the tracked source set and
// each source's converged push state (estimates, residuals, snapshot epoch,
// promotion mark), together with the WAL sequence number the snapshot
// covers. A checkpoint plus the WAL suffix past its LSN reconstructs a
// Service bit for bit.
//
// # Format (CSR image)
//
//	magic       [8]byte  "DPPRCKP4"
//	version     uint32   little-endian (4)
//	lsn         uint64   WAL LSN covered by this checkpoint
//	alpha       float64  IEEE-754 bits, little-endian
//	epsilon     float64
//	n           uvarint  number of vertices
//	m           uvarint  number of edges
//	outOffsets  (n+1) × uint32 little-endian   — CSR row starts
//	outTargets  m × uint32                     — each row strictly increasing
//	sources     uvarint count, count × source block
//	crc         uint32   CRC-32C (Castagnoli) of every preceding byte
//
// The two arrays are the out half of the graph's CSR base segment verbatim,
// so a checkpoint is written from a compacted graph with no per-edge work.
// One direction suffices because every adjacency list is sorted by neighbor
// id: the out rows are the edge set in its one canonical order, and the in
// rows — their counting-sort transpose — follow in O(n+m) on decode. The
// reader requires every row to strictly increase, so a decoded image cannot
// hold a duplicate edge or disagree between directions. Recovery wraps the
// result as the new base with no re-insertion. On the benchmark's fixture a
// 765k-edge checkpoint loads in ≈ 41 ms, transpose included, and the image
// takes 38 bytes per edge, most of it the per-source blocks. This is the one format
// written and read: any other magic or version, the retired DPPRCKP1
// adjacency-list, two-direction v2 and unmarked v3 images included, is
// rejected as ErrInvalid.
//
// A source block is
//
//	source    uvarint
//	epoch     uint64
//	auto      uvarint                    1 if the on-demand tier promoted it, else 0
//	veclen    uvarint                    length of both vectors
//	estimates veclen × float64 bits      little-endian
//	residuals veclen × float64 bits
//
// Writes go through a temp file, fsync and atomic rename, so the checkpoint
// path always holds either the previous complete checkpoint or the new one —
// never a torn hybrid; the trailing checksum rejects anything else.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"dynppr/internal/faultfs"
	"dynppr/internal/fsatomic"
	"dynppr/internal/graph"
)

const (
	magic   = "DPPRCKP4"
	version = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrInvalid reports a byte stream that is not a well-formed checkpoint
// (bad magic, unsupported version, failed checksum, or malformed body).
var ErrInvalid = errors.New("ckpt: invalid checkpoint")

// Source is one tracked source's serialized push state.
type Source struct {
	// Source is the tracked vertex.
	Source graph.VertexID
	// Epoch is the source's snapshot epoch at checkpoint time (≥ 1: the
	// cold start has always published by then).
	Epoch uint64
	// Auto marks a source the on-demand tier promoted, which a later
	// promotion may evict; a source added by hand never is.
	Auto bool
	// Estimates and Residuals are the converged (P, R) vectors. Their
	// common length may lag the vertex count when the graph grew without
	// touching this source.
	Estimates []float64
	Residuals []float64
}

// Data is one decoded checkpoint.
type Data struct {
	// LSN is the WAL sequence number the snapshot covers: recovery replays
	// only records with LSN ≥ this value.
	LSN uint64
	// Alpha and Epsilon are the scheme parameters the states were built
	// with; recovery must resume with the same values.
	Alpha   float64
	Epsilon float64
	// CSR is the graph's compacted base segment, required by Encode.
	// Recovery adopts the decoded arrays as a graph base without
	// re-inserting edges.
	CSR *graph.CSR
	// Sources lists the tracked sources in ascending source order.
	Sources []Source
}

// Encode serializes d as a CSR image: the graph base's two out-direction CSR
// arrays verbatim, fixed-width, so encoding cost is a flat memory copy rather
// than per-edge varint work. The image is sized exactly up front and
// allocated once. A Data without a CSR is rejected.
func Encode(d *Data) ([]byte, error) {
	c := d.CSR
	if c == nil {
		return nil, errors.New("ckpt: data has no CSR image")
	}
	n, m := c.NumVertices(), c.NumEdges()
	offsets, targets := c.RawOut()
	buf := make([]byte, 0, encodedSize(n, m, d.Sources))
	buf = appendHeader(buf, d)
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(m))
	buf = appendOffsets(buf, offsets)
	buf = appendTargets(buf, targets)
	buf, err := appendSources(buf, d.Sources, n)
	if err != nil {
		return nil, err
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	return buf, nil
}

// encodedSize is the exact length of the image Encode writes: the
// fixed-width header (magic, version, lsn, alpha, epsilon), the counts, the
// CSR arrays, the source blocks and the CRC.
func encodedSize(n, m int, sources []Source) int {
	size := len(magic) + 4 + 8 + 8 + 8 + uvarintLen(uint64(n)) + uvarintLen(uint64(m)) + 4*(n+1+m) +
		uvarintLen(uint64(len(sources))) + 4
	for _, s := range sources {
		size += uvarintLen(uint64(s.Source)) + 8 + 1 + uvarintLen(uint64(len(s.Estimates))) +
			8*(len(s.Estimates)+len(s.Residuals))
	}
	return size
}

func uvarintLen(x uint64) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], x)
}

func appendHeader(buf []byte, d *Data) []byte {
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, version)
	buf = binary.LittleEndian.AppendUint64(buf, d.LSN)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.Alpha))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.Epsilon))
	return buf
}

func appendOffsets(buf []byte, offsets []int32) []byte {
	for _, x := range offsets {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
	}
	return buf
}

func appendTargets(buf []byte, targets []graph.VertexID) []byte {
	for _, v := range targets {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

func appendSources(buf []byte, sources []Source, n int) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(sources)))
	for _, s := range sources {
		if s.Source < 0 || int(s.Source) >= n {
			return nil, fmt.Errorf("ckpt: source %d outside [0,%d)", s.Source, n)
		}
		if len(s.Estimates) != len(s.Residuals) {
			return nil, fmt.Errorf("ckpt: source %d vectors disagree: %d estimates, %d residuals",
				s.Source, len(s.Estimates), len(s.Residuals))
		}
		if len(s.Estimates) > n || int(s.Source) >= len(s.Estimates) {
			return nil, fmt.Errorf("ckpt: source %d vector length %d outside (%d,%d]",
				s.Source, len(s.Estimates), s.Source, n)
		}
		buf = binary.AppendUvarint(buf, uint64(s.Source))
		buf = binary.LittleEndian.AppendUint64(buf, s.Epoch)
		auto := uint64(0)
		if s.Auto {
			auto = 1
		}
		buf = binary.AppendUvarint(buf, auto)
		buf = binary.AppendUvarint(buf, uint64(len(s.Estimates)))
		for _, x := range s.Estimates {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
		for _, x := range s.Residuals {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
	}
	return buf, nil
}

// Decode parses a checkpoint image. Junk bytes, other magics or versions,
// truncation, bad checksums and malformed bodies return ErrInvalid — never a
// panic and never an allocation proportional to a forged count rather than
// the actual input size. The reader is exact: Encode of an accepted image
// reproduces its bytes.
func Decode(data []byte) (*Data, error) {
	if len(data) < len(magic)+4+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the envelope", ErrInvalid, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrInvalid, data[:len(magic)])
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrInvalid)
	}
	r := &reader{b: body, off: len(magic)}
	if v := r.u32(); v != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrInvalid, v)
	}
	d := &Data{}
	d.LSN = r.u64()
	d.Alpha = math.Float64frombits(r.u64())
	d.Epsilon = math.Float64frombits(r.u64())
	n, err := r.csr(d)
	if err != nil {
		return nil, err
	}
	if d.Sources, err = r.sources(n); err != nil {
		return nil, err
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrInvalid, len(body)-r.off)
	}
	return d, nil
}

// WriteFile is WriteFileFS on the real filesystem.
func WriteFile(path string, d *Data) error {
	return WriteFileFS(faultfs.OS, path, d)
}

// WriteFileFS atomically replaces path with the serialized checkpoint (see
// fsatomic.WriteFileFS): a crash or I/O error at any point leaves either the
// old complete checkpoint or the new one, and the temp file is verified by
// read-back before the rename and removed on every failure path.
func WriteFileFS(fs faultfs.FS, path string, d *Data) error {
	buf, err := Encode(d)
	if err != nil {
		return err
	}
	return fsatomic.WriteFileFS(fs, path, buf)
}

// LoadFile is LoadFileFS on the real filesystem.
func LoadFile(path string) (*Data, error) {
	return LoadFileFS(faultfs.OS, path)
}

// LoadFileFS reads and decodes the checkpoint at path. A missing file
// returns os.ErrNotExist.
func LoadFileFS(fs faultfs.FS, path string) (*Data, error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// reader is a bounds-checked cursor over the checkpoint body. Fixed-width
// reads record a sticky error instead of panicking; counts are validated
// against the remaining input so forged values cannot force allocations
// beyond the input size.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) u32() uint32 {
	if r.err != nil || r.remaining() < 4 {
		r.setTruncated()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.remaining() < 8 {
		r.setTruncated()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) setTruncated() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated at offset %d", ErrInvalid, r.off)
	}
}

func (r *reader) uvarint() (uint64, error) {
	if r.err != nil {
		return 0, r.err
	}
	x, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.setTruncated()
		return 0, r.err
	}
	// A zero final byte pads a shorter encoding: reject it, so an accepted
	// image re-encodes to exactly its own bytes.
	if n > 1 && r.b[r.off+n-1] == 0 {
		r.err = fmt.Errorf("%w: overlong uvarint at offset %d", ErrInvalid, r.off)
		return 0, r.err
	}
	r.off += n
	return x, nil
}

// count reads a uvarint element count whose elements each occupy at least
// minElemBytes, rejecting counts the remaining input cannot possibly hold.
func (r *reader) count(minElemBytes int) (int, error) {
	x, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if x > uint64(r.remaining()/minElemBytes)+1 {
		r.err = fmt.Errorf("%w: count %d exceeds remaining input at offset %d", ErrInvalid, x, r.off)
		return 0, r.err
	}
	return int(x), nil
}

func (r *reader) vertex(n int) (graph.VertexID, error) {
	x, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if x >= uint64(n) {
		r.err = fmt.Errorf("%w: vertex %d outside [0,%d) at offset %d", ErrInvalid, x, n, r.off)
		return 0, r.err
	}
	return graph.VertexID(x), nil
}

// csr reads the body's two fixed-width CSR arrays into d.CSR, validating
// the structural invariants via graph.NewCSR, and returns the vertex count.
func (r *reader) csr(d *Data) (int, error) {
	// Every vertex occupies at least 4 bytes (one uint32 offset) and every
	// edge 4 (one uint32 target), so forged counts cannot force allocations
	// past the input.
	n, err := r.count(4)
	if err != nil {
		return 0, err
	}
	if n > math.MaxInt32 {
		return 0, fmt.Errorf("%w: vertex count %d exceeds id range", ErrInvalid, n)
	}
	m, err := r.count(4)
	if err != nil {
		return 0, err
	}
	offsets := r.int32s(n + 1)
	targets := r.vertexIDs(m)
	if r.err != nil {
		return 0, r.err
	}
	c, err := graph.NewCSR(offsets, targets)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	d.CSR = c
	return n, nil
}

// sources reads the trailing source blocks.
func (r *reader) sources(n int) ([]Source, error) {
	numSources, err := r.count(1 + 8 + 1 + 1)
	if err != nil {
		return nil, err
	}
	sources := make([]Source, 0, numSources)
	var prev graph.VertexID = -1
	for i := 0; i < numSources; i++ {
		var s Source
		src, err := r.vertex(n)
		if err != nil {
			return nil, fmt.Errorf("%w: source %d: %v", ErrInvalid, i, err)
		}
		if src <= prev {
			return nil, fmt.Errorf("%w: sources not in ascending order (%d after %d)", ErrInvalid, src, prev)
		}
		prev = src
		s.Source = src
		s.Epoch = r.u64()
		// A mark of 0 or 1 is one uvarint byte. A truncation error is
		// sticky and surfaces at the vector length below.
		auto, _ := r.uvarint()
		if auto > 1 {
			return nil, fmt.Errorf("%w: source %d auto mark %d", ErrInvalid, src, auto)
		}
		s.Auto = auto == 1
		vecLen, err := r.count(16)
		if err != nil {
			return nil, err
		}
		if vecLen > n || int(src) >= vecLen {
			return nil, fmt.Errorf("%w: source %d vector length %d outside (%d,%d]", ErrInvalid, src, vecLen, src, n)
		}
		s.Estimates = r.floats(vecLen)
		s.Residuals = r.floats(vecLen)
		if r.err != nil {
			return nil, r.err
		}
		sources = append(sources, s)
	}
	return sources, nil
}

// int32s reads count little-endian uint32 values as int32. Values with the
// high bit set decode negative and are rejected downstream by the CSR
// validator, never interpreted as lengths.
func (r *reader) int32s(count int) []int32 {
	if r.err != nil {
		return nil
	}
	if count > r.remaining()/4 {
		r.setTruncated()
		return nil
	}
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(r.b[r.off:]))
		r.off += 4
	}
	return out
}

func (r *reader) vertexIDs(count int) []graph.VertexID {
	if r.err != nil {
		return nil
	}
	if count > r.remaining()/4 {
		r.setTruncated()
		return nil
	}
	out := make([]graph.VertexID, count)
	for i := range out {
		out[i] = graph.VertexID(int32(binary.LittleEndian.Uint32(r.b[r.off:])))
		r.off += 4
	}
	return out
}

func (r *reader) floats(n int) []float64 {
	if r.err != nil {
		return nil
	}
	if r.remaining() < 8*n {
		r.setTruncated()
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
		r.off += 8
	}
	return out
}
