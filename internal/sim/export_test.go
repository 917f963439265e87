package sim

// Accessors only this package's tests use.

import "fmt"

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case Rising:
		return "rising"
	case Falling:
		return "falling"
	case Post:
		return "post"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// TimePS returns the simulated time in picoseconds, derived from the cycle
// count and the clock period.
func (k *Kernel) TimePS() uint64 { return k.cycle * k.ClockPS }
