// Package arb promotes the single-master EC bus controller to a
// multi-master arbiter. The EC interface natively supports one master;
// a realistic smart-card SoC hangs the CPU, the crypto coprocessor and
// a DMA engine off one interconnect, so a bus-front multiplexer
// (Mux) serializes their requests under a configurable arbitration
// policy — fixed priority or round robin — exactly the regime the
// extended-AMBA transaction-level models cover.
//
// The arbiter is deliberately layered the same way as the rest of the
// hierarchy: one Mux implementation fronts every bus model (layer 0
// signal-true, layers 1/2 transaction-level, the layer-3 counting bus),
// so the grant schedule — and therefore the request/grant wire activity
// priced by EdgeEnergyJ — is identical across layers for identical
// master behaviour. That is what lets the cross-layer contention
// equivalence suite pin winner ordering and arbitration energy bits
// across abstraction levels.
package arb

import (
	"fmt"
	"math/bits"
	"strings"
)

// Policy names an arbitration policy.
type Policy string

// The supported arbitration policies. FixedPriority grants the
// lowest-numbered requesting master (port 0 is highest priority);
// RoundRobin grants the first requester after the previous winner in
// cyclic port order, so continuous requesters share the bus within ±1
// grant per rotation.
const (
	FixedPriority Policy = "fixed"
	RoundRobin    Policy = "rr"
)

// Policies lists the valid policies, the sweep vocabulary order.
var Policies = []Policy{FixedPriority, RoundRobin}

// PolicyNames renders the policy vocabulary for error messages.
func PolicyNames() string {
	parts := make([]string, len(Policies))
	for i, p := range Policies {
		parts[i] = string(p)
	}
	return strings.Join(parts, ", ")
}

// ParsePolicy validates a policy name upfront: unknown names fail
// loudly with the vocabulary.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case FixedPriority, RoundRobin:
		return Policy(s), nil
	}
	return "", fmt.Errorf("arb: unknown arbitration policy %q (valid: %s)", s, PolicyNames())
}

// EdgeEnergyJ is the energy of one full-swing transition of one
// request or grant wire: ½·C·V² at the reference supply (1.8 V) with a
// 20 fF point-to-point net — request/grant lines run master-to-
// controller only, shorter than any bused control wire in the
// gate-level reference config.
const EdgeEnergyJ = 0.5 * 20e-15 * 1.8 * 1.8

// Arbiter is the pure grant-decision core: given the request mask of
// the current cycle it picks exactly one winner. It is deterministic
// and allocation-free, so the same instance drives the signal-true
// layer, the transaction layers and the fuzz harness identically.
type Arbiter struct {
	policy Policy
	n      int
	last   int // round-robin pointer: port of the most recent grant
}

// New returns an arbiter over n master ports. Panics on an invalid
// policy or non-positive n — both are programming errors, not input.
func New(policy Policy, n int) *Arbiter {
	if _, err := ParsePolicy(string(policy)); err != nil {
		panic(err)
	}
	if n <= 0 || n > 32 {
		panic(fmt.Sprintf("arb: invalid master count %d", n))
	}
	return &Arbiter{policy: policy, n: n, last: n - 1}
}

// Pick returns the winning port for the request mask (bit i = port i
// requesting), or -1 when nothing is requested. Pick does not advance
// the round-robin pointer — the caller Commits the grant only if the
// downstream bus actually accepted the transaction, so a cycle where
// the bus is full does not rotate priority away from the loser.
func (a *Arbiter) Pick(req uint32) int {
	req &= (1 << a.n) - 1
	if req == 0 {
		return -1
	}
	switch a.policy {
	case RoundRobin:
		for i := 1; i <= a.n; i++ {
			p := (a.last + i) % a.n
			if req&(1<<p) != 0 {
				return p
			}
		}
		return -1 // unreachable: req is non-zero within the mask
	default: // FixedPriority
		return bits.TrailingZeros32(req)
	}
}

// Commit records that port g's transaction was accepted by the bus,
// advancing the round-robin pointer.
func (a *Arbiter) Commit(g int) {
	if g >= 0 && g < a.n {
		a.last = g
	}
}
