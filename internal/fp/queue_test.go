package fp

import (
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// testedBits counts the bits below n that Test reports set.
func testedBits(b *BitSet, n int) int {
	count := 0
	for i := 0; i < n; i++ {
		if b.Test(i) {
			count++
		}
	}
	return count
}

func TestQueueSequential(t *testing.T) {
	q := NewQueue(4)
	for i := int32(0); i < 4; i++ {
		q.Enqueue(i)
	}
	got := append([]int32(nil), q.Drain()...)
	if len(got) != 4 {
		t.Fatalf("Drain len = %d, want 4", len(got))
	}
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
	if got := q.Drain(); len(got) != 1 || got[0] != 7 {
		t.Fatal("queue with zero capacity hint should still work")
	}
}

func TestBitSetBasics(t *testing.T) {
	b := NewBitSet(130)
	if n := testedBits(b, 130); n != 0 {
		t.Fatalf("%d of 130 bits start set", n)
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
	if n := testedBits(b, 130); n != 1 {
		t.Fatalf("%d bits set, want 1", n)
	}
	b.Clear(129)
	if n := testedBits(b, 130); n != 0 {
		t.Fatalf("%d bits set after Clear, want 0", n)
	}
}

// The engines never grow a bit set: each run sizes a fresh one with
// NewBitSet, which must hold every bit below n whatever n's word remainder.
func TestBitSetResize(t *testing.T) {
	b := NewBitSet(1000)
	b.Set(3)
	b.Set(999)
	if !b.Test(3) || !b.Test(999) {
		t.Fatal("bits 3 and 999 not set")
	}
	if n := testedBits(b, 1000); n != 2 {
		t.Fatalf("%d bits set, want 2", n)
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

// Property: the bits Test reports set are the distinct indices set.
func TestBitSetCountProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		b := NewBitSet(1 << 16)
		distinct := make(map[int]bool)
		for _, r := range raw {
			i := int(r)
			b.Set(i)
			distinct[i] = true
		}
		return testedBits(b, 1<<16) == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Setting the bits of one word pattern through Set leaves Test reporting
// exactly that pattern, the top bit and a full word included.
func TestPopcount(t *testing.T) {
	cases := map[uint64]int{0: 0, 1: 1, 3: 2, 0xFF: 8, 1 << 63: 1, ^uint64(0): 64}
	for x, want := range cases {
		b := NewBitSet(64)
		for i := 0; i < 64; i++ {
			if x&(1<<uint(i)) != 0 {
				b.Set(i)
			}
		}
		if got := testedBits(b, 64); got != want {
			t.Errorf("pattern %#x: %d bits set, want %d", x, got, want)
		}
	}
}
