package fp

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// Len returns the number of enqueued items. Only meaningful after producers
// have finished.
func (q *Queue) Len() int {
	n := int(atomic.LoadInt64(&q.next))
	if n > len(q.items) {
		n = len(q.items)
	}
	return n + len(q.overflow)
}

// Reset clears the queue for reuse, growing the backing array if a previous
// round overflowed.
func (q *Queue) Reset() {
	if len(q.overflow) > 0 {
		q.items = make([]int32, (len(q.items)+len(q.overflow))*2)
		q.overflow = nil
	}
	atomic.StoreInt64(&q.next, 0)
}

// Len returns the capacity in bits.
func (b *BitSet) Len() int { return len(b.words) * 64 }

// Resize grows the bit set to hold at least n bits.
func (b *BitSet) Resize(n int) {
	need := (n + 63) / 64
	if need <= len(b.words) {
		return
	}
	grown := make([]uint64, need)
	copy(grown, b.words)
	b.words = grown
}

// Reset clears every bit.
func (b *BitSet) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Count returns the number of set bits (not atomic across words).
func (b *BitSet) Count() int {
	n := 0
	for _, w := range b.words {
		n += popcount(w)
	}
	return n
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestQueueSequential(t *testing.T) {
	q := NewQueue(4)
	for i := int32(0); i < 4; i++ {
		q.Enqueue(i)
	}
	if q.Len() != 4 {
		t.Fatalf("Len = %d, want 4", q.Len())
	}
	got := append([]int32(nil), q.Drain()...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i := int32(0); i < 4; i++ {
		if got[i] != i {
			t.Fatalf("Drain = %v", got)
		}
	}
}

func TestQueueOverflow(t *testing.T) {
	q := NewQueue(2)
	for i := int32(0); i < 10; i++ {
		q.Enqueue(i)
	}
	if q.Len() != 10 {
		t.Fatalf("Len = %d, want 10", q.Len())
	}
	got := append([]int32(nil), q.Drain()...)
	if len(got) != 10 {
		t.Fatalf("Drain len = %d, want 10", len(got))
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i := int32(0); i < 10; i++ {
		if got[i] != i {
			t.Fatalf("Drain missing %d: %v", i, got)
		}
	}
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("Len after Reset = %d", q.Len())
	}
	// After reset the capacity should have grown enough to avoid overflow.
	for i := int32(0); i < 10; i++ {
		q.Enqueue(i)
	}
	if q.Len() != 10 {
		t.Fatalf("Len after refill = %d", q.Len())
	}
}

func TestQueueConcurrentNoLoss(t *testing.T) {
	const producers = 8
	const per = 5000
	q := NewQueue(producers * per)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Enqueue(int32(p*per + i))
			}
		}(p)
	}
	wg.Wait()
	got := q.Drain()
	if len(got) != producers*per {
		t.Fatalf("lost items: %d != %d", len(got), producers*per)
	}
	seen := make(map[int32]bool, len(got))
	for _, v := range got {
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
	}
}

func TestQueueNewQueueMinimumCapacity(t *testing.T) {
	q := NewQueue(0)
	q.Enqueue(7)
	if q.Len() != 1 || q.Drain()[0] != 7 {
		t.Fatal("queue with zero capacity hint should still work")
	}
}

func TestBitSetBasics(t *testing.T) {
	b := NewBitSet(130)
	if b.Len() < 130 {
		t.Fatalf("Len = %d, want >= 130", b.Len())
	}
	if b.Test(5) {
		t.Fatal("bit 5 should start clear")
	}
	if b.TestAndSet(5) {
		t.Fatal("first TestAndSet should report clear")
	}
	if !b.TestAndSet(5) {
		t.Fatal("second TestAndSet should report set")
	}
	if !b.Test(5) {
		t.Fatal("bit 5 should be set")
	}
	b.Clear(5)
	if b.Test(5) {
		t.Fatal("bit 5 should be clear again")
	}
	b.Set(129)
	if !b.Test(129) {
		t.Fatal("bit 129 should be set")
	}
	if b.Count() != 1 {
		t.Fatalf("Count = %d, want 1", b.Count())
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatalf("Count after Reset = %d", b.Count())
	}
}

func TestBitSetResize(t *testing.T) {
	b := NewBitSet(10)
	b.Set(3)
	b.Resize(1000)
	if !b.Test(3) {
		t.Fatal("resize lost bit 3")
	}
	b.Set(999)
	if !b.Test(999) {
		t.Fatal("bit 999 not set after resize")
	}
}

// Exactly one concurrent TestAndSet per bit may win.
func TestBitSetTestAndSetExactlyOneWinner(t *testing.T) {
	const bits = 64
	const contenders = 16
	b := NewBitSet(bits)
	wins := make([][]bool, bits)
	for i := range wins {
		wins[i] = make([]bool, contenders)
	}
	var wg sync.WaitGroup
	for c := 0; c < contenders; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < bits; i++ {
				if !b.TestAndSet(i) {
					wins[i][c] = true
				}
			}
		}(c)
	}
	wg.Wait()
	for i := 0; i < bits; i++ {
		winners := 0
		for c := 0; c < contenders; c++ {
			if wins[i][c] {
				winners++
			}
		}
		if winners != 1 {
			t.Fatalf("bit %d had %d winners, want exactly 1", i, winners)
		}
	}
}

// Property: Count equals the number of distinct indices set.
func TestBitSetCountProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		b := NewBitSet(1 << 16)
		distinct := make(map[int]bool)
		for _, r := range raw {
			i := int(r)
			b.Set(i)
			distinct[i] = true
		}
		return b.Count() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPopcount(t *testing.T) {
	cases := map[uint64]int{0: 0, 1: 1, 3: 2, 0xFF: 8, 1 << 63: 1, ^uint64(0): 64}
	for x, want := range cases {
		if got := popcount(x); got != want {
			t.Errorf("popcount(%#x) = %d, want %d", x, got, want)
		}
	}
}
