// Package edgeio reads and writes edge lists in the plain whitespace-
// separated "u v" text format used by SNAP and by the cmd tools of this
// repository. Lines starting with '#' or '%' are treated as comments, and
// blank lines are skipped, so files downloaded from the SNAP archive load
// directly.
package edgeio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dynppr/internal/graph"
)

// Write writes one "u v" line per edge.
func Write(w io.Writer, edges []graph.Edge) error {
	bw := bufio.NewWriter(w)
	for _, e := range edges {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses an edge list. Malformed lines produce an error naming the line
// number.
func Read(r io.Reader) ([]graph.Edge, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var edges []graph.Edge
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("edgeio: line %d: want at least two fields, got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("edgeio: line %d: bad source id %q: %w", lineNo, fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("edgeio: line %d: bad target id %q: %w", lineNo, fields[1], err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("edgeio: line %d: negative vertex id", lineNo)
		}
		edges = append(edges, graph.Edge{U: graph.VertexID(u), V: graph.VertexID(v)})
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("edgeio: %w", err)
	}
	return edges, nil
}

// SaveFile writes the edges to path, creating or truncating it.
func SaveFile(path string, edges []graph.Edge) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return Write(f, edges)
}

// LoadFile reads an edge list from path.
func LoadFile(path string) ([]graph.Edge, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
