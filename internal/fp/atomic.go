// Package fp provides the low-level parallel primitives the parallel local
// push engines are built on: atomic float64 arithmetic with before-value
// semantics, lock-free frontier queues, and a chunked parallel-for executor.
//
// The atomics act on plain float64 elements of plain []float64 vectors: a
// float64 and a uint64 have the same size and alignment, so a *float64 is
// reinterpreted as the *uint64 its IEEE-754 bits live in (the conversion
// math.Float64bits makes on values). This package is the only one that
// imports unsafe. One vector may be read and written plainly by a goroutine
// that owns it, and atomically by concurrent goroutines, but not both at
// once: every concurrent access to an element must go through these
// functions until a barrier (fp.For, a channel, a WaitGroup) orders the
// phases.
//
// These are the Go equivalents of the hardware intrinsics the paper relies on
// (CUDA atomicAdd / x86 lock xadd via CilkPlus): an atomic addition to a
// 64-bit word that returns the value observed immediately before the addition,
// which is the primitive that makes local duplicate detection possible
// (Algorithm 4, line 14).
package fp

import (
	"math"
	"sync/atomic"
	"unsafe"
)

// AtomicAddFloat64 atomically adds delta to *addr and returns the value that
// was stored immediately before the addition (the "before-value").
//
// The addition is implemented with a compare-and-swap loop over the IEEE-754
// bit pattern, which is the standard technique on architectures without a
// native float atomic add. The before-value is exact: it is the value the
// successful CAS observed, so concurrent callers each see a distinct
// linearization point.
func AtomicAddFloat64(addr *float64, delta float64) (before float64) {
	bits := asBits(addr)
	for {
		oldBits := atomic.LoadUint64(bits)
		old := math.Float64frombits(oldBits)
		newBits := math.Float64bits(old + delta)
		if atomic.CompareAndSwapUint64(bits, oldBits, newBits) {
			return old
		}
	}
}

// LoadFloat64 atomically loads the float64 stored at addr.
func LoadFloat64(addr *float64) float64 {
	return math.Float64frombits(atomic.LoadUint64(asBits(addr)))
}

// SwapFloat64 atomically stores v at addr and returns the previous value.
func SwapFloat64(addr *float64, v float64) float64 {
	return math.Float64frombits(atomic.SwapUint64(asBits(addr), math.Float64bits(v)))
}

// asBits reinterprets addr as the 64-bit word holding its IEEE-754 bits.
func asBits(addr *float64) *uint64 { return (*uint64)(unsafe.Pointer(addr)) }
