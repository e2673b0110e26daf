// Package power computes exact Personalized PageRank vectors by dense
// fixed-point iteration. It is the accuracy oracle of the repository: the
// local-update engines and the Monte-Carlo baseline are validated against it
// in tests, and the harness uses it to report measured errors.
//
// Two formulations are provided, matching the two quantities the rest of the
// repository estimates:
//
//   - Reverse (contribution) PPR — the quantity the local update scheme of
//     the paper maintains. Its invariant (Equation 2 of the paper) fixes, for
//     every vertex v,
//
//     π(v) = α·1{v=s} + (1−α)/dout(v) · Σ_{x ∈ Nout(v)} π(x)
//
//     with π(v) = α·1{v=s} when dout(v) = 0. π(v) is the probability that a
//     random walk from v, terminating at each step with probability α, stops
//     at s. The sequential and parallel push engines converge to this vector
//     within ε.
//
//   - Forward PPR — the classic source-personalized vector π_s, where
//     π_s(v) is the probability that an α-teleporting walk started at s is at
//     v when it stops. The incremental Monte-Carlo baseline estimates this
//     vector.
package power

import (
	"fmt"

	"dynppr/internal/graph"
)

// Options configure the fixed-point iteration.
type Options struct {
	// Alpha is the teleport/termination probability (paper default 0.15).
	Alpha float64
	// Tolerance is the L1-change convergence threshold.
	Tolerance float64
	// MaxIterations caps the number of iterations.
	MaxIterations int
}

// DefaultOptions returns options matching the paper's α with a tolerance
// tight enough to serve as ground truth for ε ≥ 1e-9.
func DefaultOptions() Options {
	return Options{Alpha: 0.15, Tolerance: 1e-12, MaxIterations: 10_000}
}

func (o Options) validate() error {
	if o.Alpha <= 0 || o.Alpha >= 1 {
		return fmt.Errorf("power: alpha must be in (0,1), got %v", o.Alpha)
	}
	if o.Tolerance <= 0 {
		return fmt.Errorf("power: tolerance must be positive, got %v", o.Tolerance)
	}
	if o.MaxIterations <= 0 {
		return fmt.Errorf("power: max iterations must be positive, got %v", o.MaxIterations)
	}
	return nil
}

func checkSource(n int, source graph.VertexID) error {
	if source < 0 || int(source) >= n {
		return fmt.Errorf("power: source %d out of range [0,%d)", source, n)
	}
	return nil
}

// Reverse computes the contribution PPR vector towards s on the snapshot:
// entry v is the probability an α-terminating walk from v stops at s. This is
// the exact fixed point of Equation 2 with zero residuals, i.e. the vector
// the push engines approximate within ε.
func Reverse(c *graph.CSR, s graph.VertexID, opts Options) ([]float64, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	n := c.NumVertices()
	if err := checkSource(n, s); err != nil {
		return nil, err
	}
	cur := make([]float64, n)
	next := make([]float64, n)
	for iter := 0; iter < opts.MaxIterations; iter++ {
		for v := 0; v < n; v++ {
			x := 0.0
			if graph.VertexID(v) == s {
				x = opts.Alpha
			}
			out := c.OutNeighbors(graph.VertexID(v))
			if len(out) > 0 {
				var sum float64
				for _, w := range out {
					sum += cur[w]
				}
				x += (1 - opts.Alpha) * sum / float64(len(out))
			}
			next[v] = x
		}
		var delta float64
		for i := range cur {
			d := next[i] - cur[i]
			if d < 0 {
				d = -d
			}
			delta += d
		}
		cur, next = next, cur
		if delta < opts.Tolerance {
			break
		}
	}
	out := make([]float64, n)
	copy(out, cur)
	return out, nil
}

// Forward computes the classic personalized PageRank vector π_s on the
// snapshot: entry v is the probability that a walk started at s, which at
// each step stops with probability α and otherwise moves to a uniform random
// out-neighbor, stops at v. A walk that reaches a dangling vertex stops
// there.
func Forward(c *graph.CSR, s graph.VertexID, opts Options) ([]float64, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	n := c.NumVertices()
	if err := checkSource(n, s); err != nil {
		return nil, err
	}
	// walking[v] = probability the walk is at v and still walking.
	// stopped[v] = probability the walk has stopped at v.
	walking := make([]float64, n)
	nextWalking := make([]float64, n)
	stopped := make([]float64, n)
	walking[s] = 1
	for iter := 0; iter < opts.MaxIterations; iter++ {
		var moved float64
		for i := range nextWalking {
			nextWalking[i] = 0
		}
		for u := 0; u < n; u++ {
			mass := walking[u]
			if mass == 0 {
				continue
			}
			out := c.OutNeighbors(graph.VertexID(u))
			if len(out) == 0 {
				// Dangling: the walk terminates here with its whole mass.
				stopped[u] += mass
				continue
			}
			stopped[u] += opts.Alpha * mass
			share := (1 - opts.Alpha) * mass / float64(len(out))
			for _, v := range out {
				nextWalking[v] += share
			}
			moved += (1 - opts.Alpha) * mass
		}
		walking, nextWalking = nextWalking, walking
		if moved < opts.Tolerance {
			break
		}
	}
	// Whatever is still walking is attributed to its current position.
	for v := 0; v < n; v++ {
		stopped[v] += walking[v]
	}
	return stopped, nil
}

// ReverseGraph snapshots a dynamic graph and calls Reverse.
func ReverseGraph(g *graph.Graph, s graph.VertexID, opts Options) ([]float64, error) {
	return Reverse(g.Snapshot(), s, opts)
}

// ForwardGraph snapshots a dynamic graph and calls Forward.
func ForwardGraph(g *graph.Graph, s graph.VertexID, opts Options) ([]float64, error) {
	return Forward(g.Snapshot(), s, opts)
}

// ExactError solves g exactly for source s at α by ReverseGraph (tolerance
// 1e-13, at most 20 000 iterations) and returns the L∞ distance of
// estimates from that vector: the validation oracle of a tracked estimate
// vector, too expensive for the hot path.
func ExactError(g *graph.Graph, s graph.VertexID, alpha float64, estimates []float64) (float64, error) {
	oracle, err := ReverseGraph(g, s, Options{Alpha: alpha, Tolerance: 1e-13, MaxIterations: 20_000})
	if err != nil {
		return 0, err
	}
	return MaxAbsDiff(estimates, oracle), nil
}

// MaxAbsDiff returns the L∞ distance between two vectors of equal length; it
// panics if the lengths differ (programmer error in tests/harness).
func MaxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("power: length mismatch %d vs %d", len(a), len(b)))
	}
	var m float64
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}
