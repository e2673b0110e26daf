// Package fp provides the low-level parallel primitives the parallel local
// push engines are built on: atomic float64 arithmetic with before-value
// semantics, lock-free frontier queues, and a chunked parallel-for executor.
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
)

// AtomicAddFloat64 atomically adds delta to *addr and returns the value that
// was stored immediately before the addition (the "before-value").
//
// The addition is implemented with a compare-and-swap loop over the IEEE-754
// bit pattern, which is the standard technique on architectures without a
// native float atomic add. The before-value is exact: it is the value the
// successful CAS observed, so concurrent callers each see a distinct
// linearization point.
func AtomicAddFloat64(addr *uint64, delta float64) (before float64) {
	for {
		oldBits := atomic.LoadUint64(addr)
		old := math.Float64frombits(oldBits)
		newBits := math.Float64bits(old + delta)
		if atomic.CompareAndSwapUint64(addr, oldBits, newBits) {
			return old
		}
	}
}

// LoadFloat64 atomically loads the float64 stored at addr.
func LoadFloat64(addr *uint64) float64 {
	return math.Float64frombits(atomic.LoadUint64(addr))
}

// SwapFloat64 atomically stores v at addr and returns the previous value.
func SwapFloat64(addr *uint64, v float64) float64 {
	return math.Float64frombits(atomic.SwapUint64(addr, math.Float64bits(v)))
}

// Float64Vector is a slice of float64 values that supports both plain and
// atomic access. The estimate vector P and residual vector R of the local
// update scheme are Float64Vectors: the sequential engine uses the plain
// accessors, the parallel engines use the atomic ones.
//
// The zero value is an empty vector; use NewFloat64Vector or Resize to size
// it. Values are stored as raw IEEE-754 bit patterns so that atomic uint64
// operations apply directly.
type Float64Vector struct {
	bits []uint64
}

// NewFloat64Vector returns a vector of n zeros.
func NewFloat64Vector(n int) *Float64Vector {
	return &Float64Vector{bits: make([]uint64, n)}
}

// Len returns the number of elements.
func (v *Float64Vector) Len() int { return len(v.bits) }

// Resize grows the vector to length n, preserving existing values. Shrinking
// is not supported; if n <= Len() the vector is unchanged.
func (v *Float64Vector) Resize(n int) {
	if n <= len(v.bits) {
		return
	}
	grown := make([]uint64, n)
	copy(grown, v.bits)
	v.bits = grown
}

// Get returns element i without synchronization.
func (v *Float64Vector) Get(i int) float64 { return math.Float64frombits(v.bits[i]) }

// Set stores x at element i without synchronization.
func (v *Float64Vector) Set(i int, x float64) { v.bits[i] = math.Float64bits(x) }

// AtomicGet atomically loads element i.
func (v *Float64Vector) AtomicGet(i int) float64 { return LoadFloat64(&v.bits[i]) }

// AtomicAdd atomically adds delta to element i and returns the before-value.
func (v *Float64Vector) AtomicAdd(i int, delta float64) (before float64) {
	return AtomicAddFloat64(&v.bits[i], delta)
}

// AtomicSwap atomically replaces element i with x and returns the previous value.
func (v *Float64Vector) AtomicSwap(i int, x float64) float64 {
	return SwapFloat64(&v.bits[i], x)
}

// Snapshot returns the values as a plain []float64 copy.
func (v *Float64Vector) Snapshot() []float64 {
	out := make([]float64, len(v.bits))
	for i, b := range v.bits {
		out[i] = math.Float64frombits(b)
	}
	return out
}

// MaxAbs returns the L∞ norm of the vector.
func (v *Float64Vector) MaxAbs() float64 {
	var m float64
	for _, b := range v.bits {
		if a := math.Abs(math.Float64frombits(b)); a > m {
			m = a
		}
	}
	return m
}
