package dynppr_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestReadmeCitesRealTests holds README.md to the test suite: every Test… or
// Fuzz… name it cites must be a test function declared in some _test.go of
// the repository. A trailing * is a prefix match (TestMerge* names every
// test whose name starts with TestMerge).
func TestReadmeCitesRealTests(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	funcs := declaredTests(t, ".", true)
	cited := regexp.MustCompile(`\b((?:Test|Fuzz)[A-Z]\w*)(\*?)`)
	for _, m := range cited.FindAllStringSubmatch(string(readme), -1) {
		name, prefix := m[1], m[2] == "*"
		found := false
		for _, f := range funcs {
			if f == name || prefix && strings.HasPrefix(f, name) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("README.md cites %s%s, which no _test.go declares", name, m[2])
		}
	}
}

// declaredTests returns the Test… and Fuzz… functions declared in the
// _test.go files of dir and, when recursive, of the packages below it, as
// ./... names them: testdata, hidden directories and nested modules are
// skipped.
func declaredTests(t *testing.T, dir string, recursive bool) []string {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
	var funcs []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != dir {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); !recursive || err == nil ||
				d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			funcs = append(funcs, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// TestReadmeCitesRealServiceMethods holds README.md to the Service API:
// every svc.Name( or Service.Name it cites must be an exported method of
// *dynppr.Service.
func TestReadmeCitesRealServiceMethods(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	methods := serviceMethods()
	cited := regexp.MustCompile(`\bsvc\.([A-Z]\w*)\(|\bService\.([A-Z]\w*)`)
	n := 0
	for _, m := range cited.FindAllStringSubmatch(string(readme), -1) {
		name := m[1] + m[2]
		n++
		if !slices.Contains(methods, name) {
			t.Errorf("README.md cites %s, which is not a method of Service", m[0])
		}
	}
	if n == 0 {
		t.Fatal("README.md cites no Service method; the pattern no longer matches its snippets")
	}
}
