package logic

// Accessors only this package's tests use.

// LaneClassify classifies one lane's bit transition between two packed
// words. Packed lane wires are always driven (never tri-stated), so both
// Z-masks are zero and the result is one of NoChange, Rise or Fall.
func LaneClassify(old, new uint64, lane int) TransitionKind {
	return Classify(old, new, 0, 0, lane)
}

// String returns a short mnemonic for the transition kind.
func (t TransitionKind) String() string {
	switch t {
	case NoChange:
		return "-"
	case Rise:
		return "r"
	case Fall:
		return "f"
	case ToZ:
		return "z"
	case FromZ0:
		return "Z0"
	case FromZ1:
		return "Z1"
	default:
		return "?"
	}
}

// Classify returns the transition kind of bit `bit` between old and new
// values with corresponding high-impedance flags. A bit is Z when its
// z-mask bit is set, regardless of the data bit.
func Classify(oldVal, newVal, oldZ, newZ uint64, bit int) TransitionKind {
	m := uint64(1) << uint(bit)
	oz, nz := oldZ&m != 0, newZ&m != 0
	ov, nv := oldVal&m != 0, newVal&m != 0
	switch {
	case oz && nz:
		return NoChange
	case oz && !nz && nv:
		return FromZ1
	case oz && !nz && !nv:
		return FromZ0
	case !oz && nz:
		return ToZ
	case !ov && nv:
		return Rise
	case ov && !nv:
		return Fall
	default:
		return NoChange
	}
}

// NextN returns the low n bits of the next LFSR state. n must be in
// [1, 64].
func (l *LFSR) NextN(n int) uint64 {
	return l.Next() & Mask(n)
}
