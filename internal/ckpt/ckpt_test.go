package ckpt

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"dynppr/internal/graph"
)

// csrOf builds the compacted CSR base of a graph holding edges, in order.
func csrOf(edges ...graph.Edge) *graph.CSR {
	return graph.FromEdges(edges).CompactedSnapshot()
}

// sampleData builds a checkpoint value whose graph has out lists
// {1,2},{2},{},{0,1} and in lists {3},{0,3},{0,1},{}.
func sampleData() *Data {
	return &Data{
		LSN:     17,
		Alpha:   0.15,
		Epsilon: 1e-6,
		CSR: csrOf(graph.Edge{U: 0, V: 1}, graph.Edge{U: 0, V: 2}, graph.Edge{U: 1, V: 2},
			graph.Edge{U: 3, V: 0}, graph.Edge{U: 3, V: 1}),
		Sources: []Source{
			{Source: 1, Epoch: 4, Estimates: []float64{0.1, 0.9, 0}, Residuals: []float64{0, -1e-7, 1e-8}},
			{Source: 3, Epoch: 2, Auto: true, Estimates: []float64{0, 0.25, 0.5, 0.25}, Residuals: []float64{1e-9, 0, 0, 0}},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := sampleData()
	buf, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !dataEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Signed-zero and NaN-free float bits must survive exactly.
	want.Sources[0].Estimates[2] = math.Copysign(0, -1)
	buf, err = Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err = Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Sources[0].Estimates[2]) != math.Float64bits(want.Sources[0].Estimates[2]) {
		t.Fatal("float bits not preserved")
	}
	// The decoded image wraps into a consistent graph with the same lists.
	g := graph.FromCSR(got.CSR)
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 5 || !reflect.DeepEqual(g.OutNeighbors(3), []graph.VertexID{0, 1}) ||
		!reflect.DeepEqual(g.InNeighbors(1), []graph.VertexID{0, 3}) {
		t.Fatalf("decoded graph: %d edges, out(3) %v, in(1) %v", g.NumEdges(), g.OutNeighbors(3), g.InNeighbors(1))
	}
}

// TestEncodeAllocatesOnce pins the encoder's exact presizing on an image
// whose counts, source ids and vector lengths take multi-byte uvarints:
// one allocation, and no spare capacity.
func TestEncodeAllocatesOnce(t *testing.T) {
	const n = 300
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		edges = append(edges, graph.Edge{U: graph.VertexID(u), V: graph.VertexID((u*7 + 1) % n)},
			graph.Edge{U: graph.VertexID(u), V: graph.VertexID((u*13 + 5) % n)})
	}
	d := &Data{LSN: 1 << 40, Alpha: 0.15, Epsilon: 1e-6, CSR: csrOf(edges...)}
	for i := 0; i < 16; i++ {
		src := graph.VertexID(i * 9)
		length := n - 7*i
		d.Sources = append(d.Sources, Source{
			Source: src, Epoch: uint64(i + 1),
			Estimates: make([]float64, length), Residuals: make([]float64, length),
		})
	}
	var buf []byte
	allocs := testing.AllocsPerRun(10, func() {
		var err error
		if buf, err = Encode(d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("Encode made %v allocations, want 1", allocs)
	}
	if len(buf) != cap(buf) {
		t.Fatalf("image is %d bytes in a %d-byte buffer", len(buf), cap(buf))
	}
	if _, err := Decode(buf); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	good, err := Encode(sampleData())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"short":     good[:10],
		"truncated": good[:len(good)-9],
		"bad-magic": append([]byte("NOTACKP0"), good[8:]...),
		"junk":      []byte("this is not a checkpoint at all, not even close"),
	}
	// Flip one payload bit: checksum must catch it.
	flipped := append([]byte(nil), good...)
	flipped[20] ^= 0x04
	cases["bit-flip"] = flipped
	// Forge a future version with a recomputed checksum: version gate must
	// catch it.
	future := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(future[8:], version+1)
	cases["future-version"] = resealCRC(future)
	// Well-formed images of the retired formats (an empty graph, checksum
	// intact): the adjacency-list v1 and the two-direction CSR v2.
	cases["v1-image"] = []byte("DPPRCKP1\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00" +
		"\x00\x00\x00\x00\x00\x00\xe0?\x00\x00\x00\x00\x00\x00\xf0?\x00\x00N\x03u\xbe")
	cases["v2-image"] = []byte("DPPRCKP2\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00" +
		"\x00\x00\x00\x00\x00\x00\xe0?\x00\x00\x00\x00\x00\x00\xf0?" +
		"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00:\xff;~")
	// An overlong uvarint behind a valid checksum — n = 0 spelled 0x80 0x00 —
	// would re-encode shorter, so the exact reader refuses it.
	empty, err := Encode(&Data{Alpha: 0.5, Epsilon: 1, CSR: csrOf()})
	if err != nil {
		t.Fatal(err)
	}
	cases["overlong-count"] = resealCRC(slices.Concat(empty[:36], []byte{0x80}, empty[36:]))
	// Malformed rows behind a valid checksum, written over the out arrays of
	// a two-vertex, two-edge image: one row naming vertex 1 twice, and one
	// listing its targets out of order.
	rows := map[string][]graph.VertexID{"duplicate-edge": {1, 1}, "unsorted-row": {1, 0}}
	for name, targets := range rows {
		img, err := Encode(&Data{Alpha: 0.15, Epsilon: 1e-6, CSR: csrOf(graph.Edge{U: 0, V: 1}, graph.Edge{U: 1, V: 0})})
		if err != nil {
			t.Fatal(err)
		}
		arrays := appendTargets(appendOffsets(nil, []int32{0, 2, 2}), targets)
		copy(img[38:], arrays) // after the 36-byte header and one-byte n and m
		cases[name] = resealCRC(img)
	}

	for name, data := range cases {
		if _, err := Decode(data); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: got %v, want ErrInvalid", name, err)
		}
	}
}

func TestEncodeRejectsMalformedData(t *testing.T) {
	mutations := map[string]func(*Data){
		"no-csr":          func(d *Data) { d.CSR = nil },
		"vector-mismatch": func(d *Data) { d.Sources[0].Residuals = d.Sources[0].Residuals[:1] },
		"vector-short":    func(d *Data) { s := &d.Sources[1]; s.Estimates = s.Estimates[:2]; s.Residuals = s.Residuals[:2] },
		"source-range":    func(d *Data) { d.Sources[0].Source = 9 },
	}
	for name, mutate := range mutations {
		d := sampleData()
		mutate(d)
		if _, err := Encode(d); err == nil {
			t.Errorf("%s: encode accepted malformed data", name)
		}
	}
}

func TestWriteFileAtomicReplace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint")
	first := sampleData()
	if err := WriteFile(path, first); err != nil {
		t.Fatal(err)
	}
	second := sampleData()
	second.LSN = 99
	second.Sources[0].Epoch = 11
	if err := WriteFile(path, second); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.LSN != 99 || got.Sources[0].Epoch != 11 {
		t.Fatalf("replace did not take effect: %+v", got)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("temp file left behind")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: got %v, want ErrNotExist", err)
	}
}
