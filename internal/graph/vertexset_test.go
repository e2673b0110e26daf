package graph

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// requireSetEquals checks every query of s against the model: Len, Has on
// each id below n, and the walk, which must yield the model's ids in
// ascending order.
func requireSetEquals(t *testing.T, what string, s *VertexSet, model map[VertexID]bool, n int) {
	t.Helper()
	if s.Len() != len(model) {
		t.Fatalf("%s: Len %d, model holds %d", what, s.Len(), len(model))
	}
	for v := VertexID(0); int(v) < n; v++ {
		if s.Has(v) != model[v] {
			t.Fatalf("%s: Has(%d) = %t, model %t", what, v, s.Has(v), model[v])
		}
	}
	want := slices.Sorted(maps.Keys(model))
	if got := slices.Collect(s.All()); !slices.Equal(got, want) {
		t.Fatalf("%s: walk %v, want %v", what, got, want)
	}
}

// TestVertexSetMatchesMap drives a VertexSet and a map through random adds,
// removes, growths and resets, and compares every query every 25 steps and
// at the end of each round.
func TestVertexSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := range 20 {
		var s VertexSet
		n := 1 + rng.Intn(9000)
		s.Grow(n)
		model := map[VertexID]bool{}
		for step := range 300 {
			v := VertexID(rng.Intn(n))
			switch op := rng.Intn(10); {
			case op < 5:
				if added := s.Add(v); added == model[v] {
					t.Fatalf("round %d step %d: Add(%d) = %t with %d present %t", round, step, v, added, v, model[v])
				}
				model[v] = true
			case op < 8:
				s.Remove(v)
				delete(model, v)
			case op < 9:
				n += rng.Intn(5000)
				s.Grow(n)
			default:
				s.Reset()
				clear(model)
			}
			if step%25 == 0 {
				requireSetEquals(t, "random", &s, model, n)
			}
		}
		requireSetEquals(t, "random end", &s, model, n)
	}
}

// TestVertexSetBoundaries places members at the edges of a word and of a
// summary word (0, 63, 64, 4 095, 4 096 and n−1), removes some so that
// summary bits over-approximate, and checks the walk, a removal during the
// walk and the reset, which must leave every word zero.
func TestVertexSetBoundaries(t *testing.T) {
	const n = 3*4096 + 5
	var s VertexSet
	s.Grow(n)
	model := map[VertexID]bool{}
	for _, v := range []VertexID{0, 63, 64, 4095, 4096, n - 1} {
		s.Add(v)
		model[v] = true
	}
	if s.Add(4095) {
		t.Fatal("Add of a member reported it new")
	}
	requireSetEquals(t, "boundaries", &s, model, n)

	// Emptying the words of 4 095 and 4 096 leaves their summary bits set.
	for _, v := range []VertexID{4095, 4096, 63} {
		s.Remove(v)
		delete(model, v)
	}
	s.Remove(4096) // not a member: no effect
	requireSetEquals(t, "after removes", &s, model, n)

	// The body may remove the member it is given.
	var walked []VertexID
	for v := range s.All() {
		walked = append(walked, v)
		if v == 64 {
			s.Remove(v)
			delete(model, v)
		}
	}
	if want := []VertexID{0, 64, n - 1}; !slices.Equal(walked, want) {
		t.Fatalf("walk removing 64 yielded %v, want %v", walked, want)
	}
	requireSetEquals(t, "after removal in the walk", &s, model, n)

	// Growth keeps the members and admits the new range.
	s.Grow(5 * 4096)
	s.Add(5*4096 - 1)
	model[5*4096-1] = true
	requireSetEquals(t, "after growth", &s, model, 5*4096)

	s.Reset()
	for i, w := range s.words {
		if w != 0 {
			t.Fatalf("reset left word %d = %#x", i, w)
		}
	}
	for i, w := range s.sum {
		if w != 0 {
			t.Fatalf("reset left summary word %d = %#x", i, w)
		}
	}
	requireSetEquals(t, "after reset", &s, map[VertexID]bool{}, 5*4096)
}

// TestVertexSetAllocs: once grown, adding, walking and resetting allocate
// nothing.
func TestVertexSetAllocs(t *testing.T) {
	const n = 100_000
	var s VertexSet
	s.Grow(n)
	var sum VertexID
	if a := testing.AllocsPerRun(50, func() {
		for v := VertexID(0); v < n; v += 97 {
			s.Add(v)
		}
		for v := range s.All() {
			sum += v
		}
		s.Reset()
	}); a != 0 {
		t.Fatalf("add, walk and reset allocated %v times per run", a)
	}
	if sum == 0 {
		t.Fatal("the walk yielded nothing")
	}
}
