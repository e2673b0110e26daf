package push

import (
	"math/rand"
	"slices"
	"testing"

	"dynppr/internal/graph"
)

// TestAppendTopKSparseMatchesDense pins AppendTopKSparse to AppendTopK on the
// dense expansion of the same vector: random sparse vectors with tied scores
// and listed zeros (a refined answer carries them), for k below, at and above
// the number of positive entries and above n, appended after existing dst
// content.
func TestAppendTopKSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		var ids []graph.VertexID
		var vals []float64
		dense := make([]float64, n)
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				continue
			}
			x := float64(rng.Intn(5)) / 4 // few distinct scores: ties and listed zeros
			ids, vals = append(ids, graph.VertexID(v)), append(vals, x)
			dense[v] = x
		}
		prefix := []VertexScore{{Vertex: -1, Score: 9}}
		for _, k := range []int{-1, 0, 1, 3, len(ids), n - 1, n, n + 5} {
			want := AppendTopK(slices.Clone(prefix), dense, k)
			got := AppendTopKSparse(slices.Clone(prefix), n, ids, vals, k)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d n=%d k=%d ids=%v vals=%v:\nsparse %v\ndense  %v", trial, n, k, ids, vals, got, want)
			}
		}
	}
}
