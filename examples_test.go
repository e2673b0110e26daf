package dynppr_test

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"testing"
	"time"
)

// TestExamplesRun is the only thing that executes the programs under
// examples/: each must `go run` to exit code 0 within its timeout and print
// something. They finish in seconds; the timeout is for a loaded CI box
// compiling under it.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs every example")
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, "go", "run", "./examples/"+e.Name())
			// Killing `go run` on timeout orphans the example, which keeps
			// the pipes open; do not wait for it.
			cmd.WaitDelay = time.Second
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("go run: %v (timed out: %v)\nstderr:\n%s", err, ctx.Err() != nil, stderr.String())
			}
			if stdout.Len() == 0 {
				t.Fatal("example printed nothing on stdout")
			}
		})
	}
}
