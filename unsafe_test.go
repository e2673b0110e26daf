package dynppr_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOnlyFPImportsUnsafe keeps unsafe in one place: internal/fp
// reinterprets a *float64 as the *uint64 its bits live in, so the parallel
// engines get atomics over plain []float64 vectors. Any other non-test file
// of the repository that imports unsafe fails the test.
func TestOnlyFPImportsUnsafe(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") ||
			filepath.Dir(path) == filepath.Join("internal", "fp") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "unsafe" {
				t.Errorf("%s imports unsafe; only internal/fp may", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
