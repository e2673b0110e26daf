package dynppr

import "testing"

// TestODCacheDropsDeadGenerations pins the cache's generation rule with
// exact residency: a put for a newer generation drops every older entry (none
// can be requested again), and a late put for an older generation — a query
// pinned before the write — is ignored instead of parking a dead answer.
func TestODCacheDropsDeadGenerations(t *testing.T) {
	c := newODCache(8)
	answer := func(n int) *odEntry {
		return &odEntry{ids: make([]VertexID, n), vals: make([]float64, n)}
	}
	want := func(what string, entries int, answerEntries int64) {
		t.Helper()
		e, a, b := c.resident()
		if e != entries || a != answerEntries || b != 12*answerEntries {
			t.Fatalf("%s: resident entries=%d sparse=%d bytes=%d, want %d/%d/%d",
				what, e, a, b, entries, answerEntries, 12*answerEntries)
		}
	}
	c.put(odKey{source: 1, gen: 5}, answer(3))
	c.put(odKey{source: 2, gen: 5}, answer(4))
	want("two answers at generation 5", 2, 7)

	c.put(odKey{source: 3, gen: 6}, answer(2))
	want("first answer at generation 6", 1, 2)
	if c.get(odKey{source: 1, gen: 5}, false) != nil {
		t.Fatal("generation-5 answer survived a generation-6 put")
	}

	c.put(odKey{source: 1, gen: 5}, answer(3))
	want("late generation-5 put", 1, 2)
	if c.get(odKey{source: 1, gen: 5}, false) != nil {
		t.Fatal("late put for a dead generation was cached")
	}

	c.put(odKey{source: 3, gen: 6}, answer(5))
	want("overwrite in place", 1, 5)
	if e := c.get(odKey{source: 3, gen: 6}, false); e == nil || len(e.ids) != 5 {
		t.Fatal("overwritten entry not served")
	}
}
