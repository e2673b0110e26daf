package dynppr_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// nonTestGoFiles lists the repository's non-test Go files, skipping testdata
// and hidden directories.
func nonTestGoFiles(t *testing.T) []string {
	t.Helper()
	var files []string
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
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestOnlyFPImportsUnsafe keeps unsafe in one place: internal/fp
// reinterprets a *float64 as the *uint64 its bits live in, so the parallel
// engines get atomics over plain []float64 vectors. Any other non-test file
// of the repository that imports unsafe fails the test.
func TestOnlyFPImportsUnsafe(t *testing.T) {
	fset := token.NewFileSet()
	for _, path := range nonTestGoFiles(t) {
		if filepath.Dir(path) == filepath.Join("internal", "fp") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "unsafe" {
				t.Errorf("%s imports unsafe; only internal/fp may", path)
			}
		}
	}
}

// TestAtomicOrAndResultsUnused guards against a miscompile of Go 1.24.0,
// which go.mod's "go 1.24" admits: once a value-returning atomic.OrUint64 is
// inlined into a larger function, the amd64 backend may reuse a register
// that still holds a live pointer. Calling the sync/atomic Or*/And*
// functions (or the Or/And methods of its types) as statements is safe; a
// non-test file that uses the old value they return fails the test — keep
// such code on a CompareAndSwap loop.
func TestAtomicOrAndResultsUnused(t *testing.T) {
	fset := token.NewFileSet()
	for _, file := range nonTestGoFiles(t) {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		imports := map[string]string{} // local name → import path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		discarded := map[*ast.CallExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if c, ok := n.X.(*ast.CallExpr); ok {
					discarded[c] = true
				}
			case *ast.GoStmt:
				discarded[n.Call] = true
			case *ast.DeferStmt:
				discarded[n.Call] = true
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok || discarded[c] {
				return true
			}
			sel, ok := c.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if pkg, ok := sel.X.(*ast.Ident); ok && imports[pkg.Name] != "" {
				if imports[pkg.Name] != "sync/atomic" || !strings.HasPrefix(name, "Or") && !strings.HasPrefix(name, "And") {
					return true
				}
			} else if name != "Or" && name != "And" {
				return true
			}
			t.Errorf("%s: the value %s returns is used; Go 1.24.0 miscompiles that once inlined", fset.Position(c.Pos()), name)
			return true
		})
	}
}
