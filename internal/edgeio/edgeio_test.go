package edgeio

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"dynppr/internal/graph"
)

func TestWriteRead(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1}, {U: 5, V: 3}, {U: 1000000, V: 0}}
	var buf bytes.Buffer
	if err := Write(&buf, edges); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(edges) {
		t.Fatalf("got %d edges, want %d", len(got), len(edges))
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Fatalf("edge %d = %v, want %v", i, got[i], edges[i])
		}
	}
}

func TestReadCommentsAndBlank(t *testing.T) {
	in := `# SNAP-style comment
% matrix-market-style comment

0	1
  2   3
`
	got, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != (graph.Edge{U: 0, V: 1}) || got[1] != (graph.Edge{U: 2, V: 3}) {
		t.Fatalf("got %v", got)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"0\n",                      // missing field
		"a b\n",                    // bad source
		"1 b\n",                    // bad target
		"-1 2\n",                   // negative source
		"1 -2\n",                   // negative target
		"1 99999999999999999999\n", // overflow
	}
	for _, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("Read(%q) should fail", in)
		}
	}
}

func TestFileRoundTripAndLoadGraph(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "edges.txt")
	edges := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 0, V: 1}}
	if err := SaveFile(path, edges); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("LoadFile returned %d edges", len(got))
	}
	if g := graph.FromEdges(got); g.NumEdges() != 3 || g.NumVertices() != 3 {
		t.Fatalf("graph from loaded edges: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.txt")); err == nil {
		t.Fatal("missing file must fail")
	}
}

// Property: Write followed by Read is the identity on arbitrary edge lists.
func TestRoundTripProperty(t *testing.T) {
	f := func(pairs []uint16) bool {
		var edges []graph.Edge
		for i := 0; i+1 < len(pairs); i += 2 {
			edges = append(edges, graph.Edge{U: graph.VertexID(pairs[i]), V: graph.VertexID(pairs[i+1])})
		}
		var buf bytes.Buffer
		if err := Write(&buf, edges); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(edges) {
			return false
		}
		for i := range edges {
			if got[i] != edges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
