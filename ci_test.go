package dynppr_test

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCISelectionsMatchTests holds .github/workflows/ci.yml to the test
// suite. A -run pattern that matches nothing passes silently, so a renamed
// test would drop out of a GOMAXPROCS sweep or the stable-Go differential
// job unnoticed. Every top-level alternative of every -run '…' pattern but
// '^$' must select a Test… or Fuzz… function of the packages its command
// names, and every -fuzz '…' pattern exactly one fuzz target of its package.
func TestCISelectionsMatchTests(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	flag := regexp.MustCompile(`-(run|fuzz) '([^']*)'`)
	patterns := 0
	for _, line := range strings.Split(string(ci), "\n") {
		if !strings.Contains(line, "go test ") {
			continue
		}
		var funcs []string
		for _, f := range strings.Fields(line) {
			if f == "." || strings.HasPrefix(f, "./") {
				dir, recursive := strings.CutSuffix(f, "/...")
				funcs = append(funcs, declaredTests(t, dir, recursive)...)
			}
		}
		for _, m := range flag.FindAllStringSubmatch(line, -1) {
			kind, pattern := m[1], m[2]
			if pattern == "^$" {
				continue
			}
			patterns++
			if kind == "fuzz" {
				re := regexp.MustCompile(pattern)
				targets := slices.DeleteFunc(slices.Clone(funcs), func(f string) bool {
					return !strings.HasPrefix(f, "Fuzz") || !re.MatchString(f)
				})
				if len(targets) != 1 {
					t.Errorf("ci.yml: -fuzz '%s' selects %v, want one fuzz target: %s", pattern, targets, strings.TrimSpace(line))
				}
				continue
			}
			for _, alt := range strings.Split(pattern, "|") {
				if !slices.ContainsFunc(funcs, regexp.MustCompile(alt).MatchString) {
					t.Errorf("ci.yml: -run alternative %q selects no test: %s", alt, strings.TrimSpace(line))
				}
			}
		}
	}
	if patterns == 0 {
		t.Fatal("ci.yml: no -run or -fuzz pattern found")
	}
}
