package graph

import (
	"iter"
	"math/bits"
)

// VertexSet is a set of vertex ids with a single owner, so its words are
// read and written plainly. Bit v of words marks member v, and bit i of sum
// marks a word i that may hold members, so one summary word covers 4 096
// ids: Add, Has and Remove cost O(1), and All and Reset cost
// O(members + n/4096) over a set grown to n ids. The zero value holds no
// ids; Grow it before use.
type VertexSet struct {
	words []uint64
	sum   []uint64 // may over-approximate: Remove leaves the summary bit
	n     int
}

// Grow extends the set to hold ids in [0, n). Members are kept.
func (s *VertexSet) Grow(n int) {
	if w := (n + 63) >> 6; w > len(s.words) {
		s.words = grow(s.words, w)
		s.sum = grow(s.sum, (w+63)>>6)
	}
}

// Add inserts v and reports whether it was new.
func (s *VertexSet) Add(v VertexID) bool {
	w, b := &s.words[v>>6], uint64(1)<<(v&63)
	if *w&b != 0 {
		return false
	}
	*w |= b
	s.sum[v>>12] |= 1 << (v >> 6 & 63)
	s.n++
	return true
}

// Has reports whether v is a member.
func (s *VertexSet) Has(v VertexID) bool { return s.words[v>>6]&(1<<(v&63)) != 0 }

// Remove deletes v if it is a member.
func (s *VertexSet) Remove(v VertexID) {
	if w, b := &s.words[v>>6], uint64(1)<<(v&63); *w&b != 0 {
		*w &^= b
		s.n--
	}
}

// Len returns the number of members.
func (s *VertexSet) Len() int { return s.n }

// All yields the members in ascending id order. The loop body may Remove
// the member it is given.
func (s *VertexSet) All() iter.Seq[VertexID] {
	return func(yield func(VertexID) bool) {
		for i, m := range s.sum {
			for ; m != 0; m &= m - 1 {
				wi := i<<6 | bits.TrailingZeros64(m)
				for w := s.words[wi]; w != 0; w &= w - 1 {
					if !yield(VertexID(wi<<6 | bits.TrailingZeros64(w))) {
						return
					}
				}
			}
		}
	}
}

// Reset empties the set, keeping its capacity.
func (s *VertexSet) Reset() {
	for i, m := range s.sum {
		for ; m != 0; m &= m - 1 {
			s.words[i<<6|bits.TrailingZeros64(m)] = 0
		}
		s.sum[i] = 0
	}
	s.n = 0
}
