package fp

import (
	"sync"
	"sync/atomic"
)

// Queue is a bounded, lock-free, multi-producer append-only vertex queue used
// as the frontier queue FQ of the parallel push. Producers claim slots with a
// single atomic fetch-add; the queue is drained (read) only after all
// producers have synchronized, which matches the iteration barrier of
// Algorithm 3/4.
//
// The capacity is fixed at construction; Enqueue on a full queue falls back to
// a mutex-protected overflow slice so correctness never depends on the bound.
type Queue struct {
	items []int32
	next  int64

	overflowMu sync.Mutex
	overflow   []int32
}

// NewQueue returns a queue with the given capacity hint.
func NewQueue(capacity int) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue{items: make([]int32, capacity)}
}

// Enqueue appends v. Safe for concurrent use.
func (q *Queue) Enqueue(v int32) {
	slot := atomic.AddInt64(&q.next, 1) - 1
	if int(slot) < len(q.items) {
		q.items[slot] = v
		return
	}
	q.overflowMu.Lock()
	q.overflow = append(q.overflow, v)
	q.overflowMu.Unlock()
}

// Drain returns the queued items. The returned slice aliases internal storage
// when no overflow occurred. Only call after all producers have finished.
func (q *Queue) Drain() []int32 {
	n := int(atomic.LoadInt64(&q.next))
	if n > len(q.items) {
		n = len(q.items)
	}
	if len(q.overflow) == 0 {
		return q.items[:n]
	}
	out := make([]int32, 0, n+len(q.overflow))
	out = append(out, q.items[:n]...)
	out = append(out, q.overflow...)
	return out
}

// BitSet is a fixed-size concurrent bit set over vertex ids. It backs the
// "unique enqueue" path of the vanilla parallel push (Algorithm 3), where a
// vertex must be added to the next frontier at most once: TestAndSet is the
// global synchronization the paper's local duplicate detection removes.
type BitSet struct {
	words []uint64
}

// NewBitSet returns a bit set able to hold n bits.
func NewBitSet(n int) *BitSet {
	return &BitSet{words: make([]uint64, (n+63)/64)}
}

// TestAndSet atomically sets bit i and reports whether it was already set.
//
// It keeps a compare-and-swap loop instead of using the old value
// atomic.OrUint64 returns: Go 1.24.0, which go.mod admits, miscompiles that
// form on amd64 once inlined into a larger function (the OR loop clobbers a
// live register). Set and Clear discard the old value, which compiles to a
// single locked OR or AND.
func (b *BitSet) TestAndSet(i int) (wasSet bool) {
	word := &b.words[i>>6]
	mask := uint64(1) << uint(i&63)
	for {
		old := atomic.LoadUint64(word)
		if old&mask != 0 {
			return true
		}
		if atomic.CompareAndSwapUint64(word, old, old|mask) {
			return false
		}
	}
}

// Test reports whether bit i is set.
func (b *BitSet) Test(i int) bool {
	return atomic.LoadUint64(&b.words[i>>6])&(uint64(1)<<uint(i&63)) != 0
}

// Set sets bit i without returning the previous value.
func (b *BitSet) Set(i int) {
	atomic.OrUint64(&b.words[i>>6], uint64(1)<<uint(i&63))
}

// Clear unsets bit i.
func (b *BitSet) Clear(i int) {
	atomic.AndUint64(&b.words[i>>6], ^(uint64(1) << uint(i&63)))
}
