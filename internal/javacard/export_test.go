package javacard

// Accessors only this package's tests use.

import "repro/internal/ecbus"

// Depth implements Stack.
func (s *SoftStack) Depth() int { return len(s.data) }

// Depth returns the current fill level.
func (h *HardStack) Depth() int { return len(h.data) }

// Depth implements Stack (one bus read).
func (a *MasterAdapter) Depth() int {
	if a.org == OrgBurst {
		if err := a.Flush(); err != nil {
			return -1
		}
	}
	v, err := a.do(ecbus.Read, a.base+RegDepth, ecbus.W32, 0)
	if err != nil {
		return -1
	}
	return int(v)
}
