// Package tear implements deterministic card-tear (power-loss)
// injection: the card is yanked from the terminal mid-run, the supply
// collapses, and the simulation cuts — possibly inside an EEPROM
// programming window, where the partial-write corruption model of
// internal/mem leaves the interrupted word indeterminate.
//
// Determinism and layer portability are the design constraints. A cut
// chosen by wall position ("cycle 12345") means different work on
// different simulation layers, because the layers time the same
// workload differently. The named plans therefore cut in NVM
// programming-op ordinal space: "during the Nth programming operation,
// K cycles into its window". The Nth program op is a property of the
// workload, not of the timing model, so the cut ordinal — and with it
// the corruption pattern, which internal/mem derives from (seed, addr,
// ordinal) only — is identical across layers and bit-identical between
// the reference and optimized bus paths. Cycle- and joule-budget cuts
// are also supported (Plan.CutCycle / Plan.BudgetJ) for the
// energy-envelope experiments; those watch the bit-exact meter total,
// so they too reproduce exactly on a given layer.
package tear

import "repro/internal/journal"

// ErrPowerLost re-exports the power-loss sentinel bus masters return
// once the monitor has latched. It is defined in internal/journal — the
// dependency root every persistence client already imports.
var ErrPowerLost = journal.ErrPowerLost

// Plan describes one deterministic power loss. The zero Plan (Empty)
// never fires. Exactly the trigger fields that are set arm the
// monitor; the first trigger to fire wins.
type Plan struct {
	Name string
	// CutProgram arms the ordinal trigger: cut during the CutProgram-th
	// (1-based) NVM programming operation, CutOffset cycles into its
	// self-timed window. This is the layer-portable trigger the named
	// plans use.
	CutProgram uint64
	CutOffset  uint64
	// CutCycle arms the cycle trigger: cut at this absolute cycle.
	CutCycle uint64
	// BudgetJ arms the joule trigger: cut once the meter total reaches
	// this budget (the WCET-style energy envelope).
	BudgetJ float64
	// Seed drives the partial-write corruption pattern.
	Seed uint64
}

// Empty reports whether the plan never fires.
func (p Plan) Empty() bool {
	return p.CutProgram == 0 && p.CutCycle == 0 && p.BudgetJ == 0
}

// Names is the plan vocabulary of the sweep's tear axis.
var Names = []string{"none", "tear-early", "tear-mid", "tear-late"}

// Named resolves a tear plan name ("" and "none" both mean no tear).
// The named plans cut during the 1st, 8th and 32nd NVM programming
// operation, landing early, mid and late in the programming window —
// three exposure points of the journaling strategies. Seeds are fixed:
// a named plan is one reproducible experiment, not a distribution.
func Named(name string) (Plan, bool) {
	switch name {
	case "", "none":
		return Plan{}, true
	case "tear-early":
		return Plan{Name: name, CutProgram: 1, CutOffset: 2, Seed: 0x7EA4_0001}, true
	case "tear-mid":
		return Plan{Name: name, CutProgram: 8, CutOffset: 5, Seed: 0x7EA4_0002}, true
	case "tear-late":
		return Plan{Name: name, CutProgram: 32, CutOffset: 9, Seed: 0x7EA4_0003}, true
	default:
		return Plan{}, false
	}
}

// Monitor watches a running simulation and latches when the plan's
// first trigger fires. Masters call Check after every completed bus
// operation and at every bytecode boundary — observation points that
// are identical on the reference and optimized bus paths, so the cut
// lands on the same operation bit-for-bit.
type Monitor struct {
	plan     Plan
	cycle    func() uint64
	energy   func() float64
	programs func() uint64

	torn     bool
	cutCycle uint64
	cutOp    uint64
	cutJ     float64
}

// NewMonitor arms a monitor. cycle supplies the kernel clock; energy
// the bit-exact meter total (may be nil when no joule trigger is
// armed); programs the NVM device's completed-programming counter (may
// be nil when no ordinal trigger is armed).
func NewMonitor(plan Plan, cycle func() uint64, energy func() float64, programs func() uint64) *Monitor {
	return &Monitor{plan: plan, cycle: cycle, energy: energy, programs: programs}
}

// Check returns true once the supply is gone. The first call that
// observes a trigger condition latches the cut state; every later call
// keeps returning true.
func (m *Monitor) Check() bool {
	if m == nil {
		return false
	}
	if m.torn {
		return true
	}
	if m.plan.Empty() {
		return false
	}
	now := m.cycle()
	if m.plan.CutProgram != 0 && m.programs != nil {
		if ops := m.programs(); ops >= m.plan.CutProgram {
			m.latch(now+m.plan.CutOffset, ops)
			return true
		}
	}
	if m.plan.CutCycle != 0 && now >= m.plan.CutCycle {
		m.latch(now, 0)
		return true
	}
	if m.plan.BudgetJ != 0 && m.energy != nil && m.energy() >= m.plan.BudgetJ {
		m.latch(now, 0)
		return true
	}
	return false
}

func (m *Monitor) latch(cut uint64, op uint64) {
	m.torn = true
	m.cutCycle = cut
	m.cutOp = op
	if m.energy != nil {
		m.cutJ = m.energy()
	}
}

// CutCycle returns the cycle the supply died at: for the ordinal
// trigger, CutOffset cycles into the interrupting operation's window —
// the cycle internal/mem's TearAt resolves the corruption against.
func (m *Monitor) CutCycle() uint64 { return m.cutCycle }

// CutProgram returns the ordinal of the programming operation the cut
// landed in (0 for cycle/joule triggers).
func (m *Monitor) CutProgram() uint64 { return m.cutOp }
