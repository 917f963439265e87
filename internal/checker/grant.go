package checker

import (
	"fmt"
	"math/bits"

	"repro/internal/arb"
)

// GrantMonitor is the grant-protocol checker of the multi-master bus:
// it watches the arbiter's request/grant wires and flags violations of
// the arbitration invariants:
//
//	G1  A grant pulse only to a requesting master (no grant without
//	    request — the wire-level face of "no data phase without
//	    grant": the mux only starts a transaction's address phase on
//	    its grant cycle, so a grant to a silent port would hand the
//	    bus to nobody).
//	G2  At most one grant per cycle (the EC bus starts one address
//	    phase per falling edge; a double grant would collide phases).
//	G3  Starvation bound (round robin only): a master that requests
//	    continuously is granted within n-1 grants to other masters —
//	    one full rotation. Fixed priority starves by design, so G3 is
//	    not checked for it.
//
// The monitor shares the checker's Violation vocabulary so a
// contention run reports bus-protocol and grant-protocol violations
// through one channel.
type GrantMonitor struct {
	policy arb.Policy
	n      int

	// passedOver[i] counts grants to other masters since master i's
	// own last grant, while i has been requesting continuously; any gap
	// in i's request resets the count (a master that pauses re-queues).
	passedOver []int

	grants     []uint64
	violations []Violation
}

// NewGrantMonitor returns a monitor for an n-master arbiter under the
// given policy. Install its Observe on the mux.
func NewGrantMonitor(policy arb.Policy, n int) *GrantMonitor {
	return &GrantMonitor{policy: policy, n: n, passedOver: make([]int, n), grants: make([]uint64, n)}
}

// Violations returns all detected grant-protocol violations.
func (g *GrantMonitor) Violations() []Violation { return g.violations }

// Clean reports whether no violation was seen.
func (g *GrantMonitor) Clean() bool { return len(g.violations) == 0 }

// Grants returns the observed grant count of master i.
func (g *GrantMonitor) Grants(i int) uint64 { return g.grants[i] }

func (g *GrantMonitor) flag(cycle uint64, rule, format string, a ...any) {
	g.violations = append(g.violations, Violation{Cycle: cycle, Rule: rule, Info: fmt.Sprintf(format, a...)})
}

// Observe checks one arbitration cycle of request/grant wires.
func (g *GrantMonitor) Observe(cycle uint64, req, gnt uint32) {
	if bits.OnesCount32(gnt) > 1 {
		g.flag(cycle, "G2", "more than one grant asserted: gnt=%0*b", g.n, gnt)
	}
	if gnt&^req != 0 {
		g.flag(cycle, "G1", "grant without request: req=%0*b gnt=%0*b", g.n, req, g.n, gnt)
	}
	for i := 0; i < g.n; i++ {
		bit := uint32(1) << uint(i)
		switch {
		case gnt&bit != 0:
			g.grants[i]++
			g.passedOver[i] = 0
		case req&bit == 0:
			// Not requesting this cycle: the continuous-request window
			// restarts.
			g.passedOver[i] = 0
		case gnt != 0:
			// Requesting, but someone else won.
			g.passedOver[i]++
			if g.policy == arb.RoundRobin && g.passedOver[i] > g.n-1 {
				g.flag(cycle, "G3", "master %d passed over %d consecutive grants while requesting (bound %d)",
					i, g.passedOver[i], g.n-1)
			}
		}
	}
}
