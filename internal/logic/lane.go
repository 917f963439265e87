package logic

// Lane-word helpers for the batched structure-of-arrays engine
// (internal/batch): one uint64 packs the same single-bit wire across up
// to 64 concurrent corpus runs, one lane per bit. Every helper takes an
// active-lane mask and restricts its answer to live lanes, so drained
// lanes — whose bits are parked at zero between runs — can never
// contribute phantom transitions.

// LaneChanged returns the active lanes whose wire value differs between
// the old and new packed words.
func LaneChanged(old, new, active uint64) uint64 {
	return (old ^ new) & active
}

// LaneRises returns the active lanes whose wire rose 0 -> 1.
func LaneRises(old, new, active uint64) uint64 {
	return ^old & new & active
}

// LaneFalls returns the active lanes whose wire fell 1 -> 0.
func LaneFalls(old, new, active uint64) uint64 {
	return old & ^new & active
}
