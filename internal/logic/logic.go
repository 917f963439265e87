// Package logic provides bit-vector utilities shared by all abstraction
// levels: Hamming-distance and transition counting, per-bit transition
// classification (rise / fall / to-Z / from-Z), and a small LFSR used for
// deterministic pseudo-random stimulus and the simulated true-RNG
// peripheral.
//
// The gate-level power estimator (package gatepower) distinguishes
// transition types the way the paper's Diesel tool does ("the number of
// transitions between false, true and high-impedance"); the layer-1 TLM
// energy model deliberately collapses them to plain transition counts.
package logic

import "math/bits"

// TransitionKind classifies a single-bit value change.
type TransitionKind int

// Transition kinds between the three wire states false, true and Z.
const (
	NoChange TransitionKind = iota
	Rise                    // 0 -> 1
	Fall                    // 1 -> 0
	ToZ                     // 0/1 -> Z
	FromZ0                  // Z -> 0
	FromZ1                  // Z -> 1
)

// Hamming returns the number of differing bits between a and b restricted
// to the low `width` bits. Width must be in [0, 64].
func Hamming(a, b uint64, width int) int {
	return HammingMasked(a, b, Mask(width))
}

// HammingMasked is Hamming with a caller-precomputed width mask, for hot
// loops that would otherwise rebuild the mask every cycle.
func HammingMasked(a, b, mask uint64) int {
	return bits.OnesCount64((a ^ b) & mask)
}

// Mask returns a mask with the low `width` bits set. Width is clamped to
// [0, 64].
func Mask(width int) uint64 {
	if width <= 0 {
		return 0
	}
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(width)) - 1
}

// Rises returns the number of 0->1 transitions between old and new within
// the low `width` bits.
func Rises(old, new uint64, width int) int {
	return RisesMasked(old, new, Mask(width))
}

// RisesMasked is Rises with a caller-precomputed width mask.
func RisesMasked(old, new, mask uint64) int {
	return bits.OnesCount64(^old & new & mask)
}

// Falls returns the number of 1->0 transitions between old and new within
// the low `width` bits.
func Falls(old, new uint64, width int) int {
	return FallsMasked(old, new, Mask(width))
}

// FallsMasked is Falls with a caller-precomputed width mask.
func FallsMasked(old, new, mask uint64) int {
	return bits.OnesCount64(old & ^new & mask)
}

// CoupledSame returns the number of adjacent bit pairs that transition in
// the same direction (both rise or both fall), and CoupledOpposite the
// number that transition in opposite directions. Adjacent same-direction
// switching reduces effective Miller capacitance; opposite-direction
// switching increases it. Width must be >= 2 for a nonzero result.
func CoupledSame(old, new uint64, width int) int {
	return CoupledSameMasked(old, new, Mask(width))
}

// CoupledSameMasked is CoupledSame with a caller-precomputed width mask.
func CoupledSameMasked(old, new, mask uint64) int {
	r := ^old & new & mask
	f := old & ^new & mask
	return bits.OnesCount64(r&(r>>1)) + bits.OnesCount64(f&(f>>1))
}

// CoupledOpposite counts adjacent bit pairs switching in opposite
// directions between old and new within the low `width` bits.
func CoupledOpposite(old, new uint64, width int) int {
	return CoupledOppositeMasked(old, new, Mask(width))
}

// CoupledOppositeMasked is CoupledOpposite with a caller-precomputed
// width mask.
func CoupledOppositeMasked(old, new, mask uint64) int {
	r := ^old & new & mask
	f := old & ^new & mask
	return bits.OnesCount64(r&(f>>1)) + bits.OnesCount64(f&(r>>1))
}

// Mix64 is a 64-bit finalizer (splitmix64): it breaks the linear bit
// dependences of raw LFSR states, producing values whose bits behave
// independently — required wherever stimulus bits must be uncorrelated
// (e.g. DPA plaintext campaigns).
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// LFSR is a 64-bit maximal-length linear feedback shift register used for
// deterministic stimulus generation. The zero value is invalid; use
// NewLFSR.
type LFSR struct {
	state uint64
}

// NewLFSR returns an LFSR seeded with the given nonzero seed. A zero seed
// is replaced by a fixed nonzero constant so the register never locks up.
func NewLFSR(seed uint64) *LFSR {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &LFSR{state: seed}
}

// Next advances the register and returns the new 64-bit state. The
// feedback polynomial is x^64 + x^63 + x^61 + x^60 + 1 (taps 63,62,60,59).
func (l *LFSR) Next() uint64 {
	s := l.state
	b := ((s >> 63) ^ (s >> 62) ^ (s >> 60) ^ (s >> 59)) & 1
	l.state = (s << 1) | b
	return l.state
}

// NextBool returns a pseudo-random bit.
func (l *LFSR) NextBool() bool { return l.Next()&1 == 1 }

// NextRange returns a value in [0, n) for n > 0. The modulo bias is
// irrelevant for stimulus generation.
func (l *LFSR) NextRange(n int) int {
	if n <= 0 {
		return 0
	}
	return int(l.Next() % uint64(n))
}
