package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"text/tabwriter"
)

// child is the run A/A mode is waiting for, so that a signal can stop it too.
var child atomic.Pointer[os.Process]

// aaRun is what A/A mode keeps of one child run.
type aaRun struct {
	res  result
	work string // the "work ..." line: identical for two runs of one seed
}

// childRun executes this binary for one workload and seed in a fresh
// process, the way the driver does, and parses the last line it prints.
func childRun(exe string, args []string, stderr io.Writer) (aaRun, error) {
	var run aaRun
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		return run, err
	}
	child.Store(cmd.Process)
	err := cmd.Wait()
	child.Store(nil)
	if err != nil {
		fmt.Fprint(stderr, out.String())
		return run, fmt.Errorf("%s %s: %w", exe, strings.Join(args, " "), err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	for _, l := range lines {
		if strings.HasPrefix(l, "work ") {
			run.work = l
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.res); err != nil {
		return run, fmt.Errorf("parsing the result line: %w", err)
	}
	return run, nil
}

// runAA runs n sets of every workload twice with the same binary and seeds
// (sides A and A'), interleaved so that drift of the box hits both sides, and
// prints per cell the two medians, how much worse A' is than A, each side's
// quartile spread and the cell's bound. A cell is steady when the difference
// stays within half its bound and both spreads within a third of it.
func runAA(n int, seed int64, seconds float64, quick bool, tmp, out string, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	type cell struct{ workload, metric string }
	vals := [2]map[cell][]float64{{}, {}}
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			var work [2]string
			for side := 0; side < 2; side++ {
				args := []string{
					"-workload", w.name, "-seed", fmt.Sprint(seed + int64(i)),
					"-seconds", fmt.Sprint(seconds), "-tmp", tmp, "-out", out,
				}
				if quick {
					args = append(args, "-quick")
				}
				run, err := childRun(exe, args, stderr)
				if err != nil {
					return err
				}
				if !run.res.Correct {
					return fmt.Errorf("%s seed %d: %d of %d ops failed", w.name, seed+int64(i), run.res.Failed, run.res.Attempted)
				}
				work[side] = run.work
				for _, m := range endToEnd {
					c := cell{w.name, m.name}
					vals[side][c] = append(vals[side][c], run.res.Metrics[m.name].Value)
				}
				fmt.Fprintf(stderr, "# set %d/%d %s side %d done\n", i+1, n, w.name, side)
			}
			if work[0] != work[1] {
				return fmt.Errorf("%s seed %d: two runs of one seed did different work (%q vs %q): the run is invalid", w.name, seed+int64(i), work[0], work[1])
			}
		}
	}

	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tmedian A\tmedian A'\tA' worse by\tspread A\tspread A'\tbound\tverdict\n")
	unsteady := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			c := cell{w.name, m.name}
			a, b := medianFloat(vals[0][c]), medianFloat(vals[1][c])
			worse := (b - a) / a
			if m.higher {
				worse = (a - b) / a
			}
			sa, sb := quartileSpread(vals[0][c]), quartileSpread(vals[1][c])
			verdict := "ok"
			switch {
			case quick:
				verdict = "-"
			case worse > m.bound/2 || -worse > m.bound/2:
				verdict = "DIFF > bound/2"
				unsteady++
			case m.name != "setup_s" && (sa > m.bound/3 || sb > m.bound/3):
				verdict = "spread > bound/3"
				unsteady++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f %%\t%.2f %%\t%.2f %%\t%.2f\t%s\n",
				w.name, m.name, a, b, worse*100, sa*100, sb*100, m.bound, verdict)
		}
	}
	tw.Flush()
	for _, w := range workloads {
		for _, m := range endToEnd {
			c := cell{w.name, m.name}
			fmt.Fprintf(stderr, "# raw %s %s A %.6g A' %.6g\n", w.name, m.name, vals[0][c], vals[1][c])
		}
	}
	fmt.Fprintf(stdout, "%d sets, seeds %d..%d, %d cells, %d not steady\n", n, seed, seed+int64(n)-1, len(workloads)*len(endToEnd), unsteady)
	return nil
}
