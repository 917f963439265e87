// Package gatepower is this repository's substitute for Diesel, the
// gate-level power estimation tool the paper used as its energy
// reference. Like Diesel it works below the transaction level: it
// observes every wire of the bus interface each cycle, distinguishes
// transition types, and prices each transition with wire-specific
// parasitics (capacitance, slope from RC loading, Miller coupling to
// adjacent bits), plus effects invisible at transaction level — decoder
// glitching, clock-tree switching, and leakage.
//
// The paper: "Additional to detailed timing information the tool uses
// information from the layout about parasitic capacitances and
// resistances. It estimates the dissipated energy for each wire and
// module on the chip. [...] The output shows the number of transitions
// between false, true and high-impedance."
//
// The modelled EC interface uses only unidirectional, actively driven
// signals, so the false/true/high-impedance transition taxonomy
// degenerates to rise/fall here; the taxonomy (and the layer models'
// blindness to it) is preserved through distinct rise and fall energies.
//
// Characterization: after a run over a characterization corpus, Char()
// produces the per-signal average-energy-per-transition table that the
// transaction-level energy models consume — exactly the paper's
// abstraction step: "We abstracted all different transitions and use the
// average energy per transition for each signal considered for our power
// estimation."
package gatepower

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/ecbus"
	"repro/internal/logic"
)

// referencePath selects the straightforward full-scan observation loop
// instead of the delta-driven one for estimators constructed while it is
// set. Flipped by core.SetReference; the golden-equivalence tests prove
// both paths produce byte-identical results.
var referencePath atomic.Bool

// SetReferencePath switches newly constructed estimators between the
// reference (full-scan) and optimized (dirty-mask) observation paths.
func SetReferencePath(on bool) { referencePath.Store(on) }

// WireSpec holds the layout-derived parasitics of one signal group.
type WireSpec struct {
	CapFF  float64 // effective switched capacitance per bit, femtofarads
	SlopeK float64 // slope/short-circuit multiplier from RC loading (>= 1)
}

// Config is the extracted "layout database" of the bus interface unit and
// bus controller. DefaultConfig returns values representative of a
// 0.18 µm smart-card process; absolute numbers are synthetic but the
// ratios (long address/data nets vs short control nets, decoder glitch
// share, clock share) drive the accuracy relationships the paper reports.
type Config struct {
	VddVolts float64

	Wires [ecbus.NumSignals]WireSpec

	KRise float64 // rise-transition multiplier (charging + short circuit)
	KFall float64 // fall-transition multiplier

	// CouplingK scales Miller coupling between adjacent bits of multi-bit
	// buses: opposite-direction pairs add CouplingK of a bit energy,
	// same-direction pairs save half of that.
	CouplingK float64

	// GlitchWiresPerAddrBit is the average number of decoder-internal
	// wire transitions caused by each toggling address bit (combinational
	// glitching of the address decoder).
	GlitchWiresPerAddrBit float64
	DecoderWireCapFF      float64

	ClockCapFF       float64 // clock tree capacitance switched per edge
	LeakagePerCycleJ float64
}

// DefaultConfig returns the reference parasitics set used by all
// experiments (recorded in EXPERIMENTS.md).
func DefaultConfig() Config {
	c := Config{
		VddVolts:              1.8,
		KRise:                 1.08,
		KFall:                 0.94,
		CouplingK:             0.22,
		GlitchWiresPerAddrBit: 0.9,
		DecoderWireCapFF:      18,
		// The clock load and leakage charged here are the BIU/controller
		// share only (the cores and memories have their own budgets);
		// they are deliberately small so the reference energy is
		// dominated by interface switching, as in the paper's setup.
		ClockCapFF:       0.9,
		LeakagePerCycleJ: 0.5e-15,
	}
	// Long, heavily loaded nets: address and data buses route across the
	// chip to every slave. Control wires are short point-to-point nets.
	for id := ecbus.SignalID(0); id < ecbus.NumSignals; id++ {
		c.Wires[id] = WireSpec{CapFF: 26, SlopeK: 1.02} // control default
	}
	c.Wires[ecbus.SigA] = WireSpec{CapFF: 48, SlopeK: 1.10}
	c.Wires[ecbus.SigWData] = WireSpec{CapFF: 58, SlopeK: 1.12}
	c.Wires[ecbus.SigRData] = WireSpec{CapFF: 58, SlopeK: 1.12}
	c.Wires[ecbus.SigBE] = WireSpec{CapFF: 30, SlopeK: 1.04}
	c.Wires[ecbus.SigSel] = WireSpec{CapFF: 18, SlopeK: 1.0}
	return c
}

// bitEnergy returns the base energy of one full-swing transition of one
// bit of signal id: ½·C·V² scaled by the wire's slope factor.
func (c *Config) bitEnergy(id ecbus.SignalID) float64 {
	w := c.Wires[id]
	return 0.5 * w.CapFF * 1e-15 * c.VddVolts * c.VddVolts * w.SlopeK
}

// BitEnergy exposes the per-signal base transition energy to external
// estimation engines (the batched SoA engine) that must reproduce the
// estimator's precomputed constants bit for bit.
func (c *Config) BitEnergy(id ecbus.SignalID) float64 { return c.bitEnergy(id) }

// ClockEnergyPerCycleJ returns the per-cycle clock-tree energy, keeping
// the exact float expression shape of the reference path's per-cycle
// addition, so a CycleSum of it holds the reference path's bits.
func (c *Config) ClockEnergyPerCycleJ() float64 {
	return 2 * 0.5 * c.ClockCapFF * 1e-15 * c.VddVolts * c.VddVolts
}

// DecoderWireEnergyJ returns the per-glitching-wire decoder energy with
// the same expression shape as NewEstimator's precomputed constant.
func (c *Config) DecoderWireEnergyJ() float64 {
	return 0.5 * c.DecoderWireCapFF * 1e-15 * c.VddVolts * c.VddVolts
}

// SigStats accumulates per-signal observations, Diesel's per-wire output.
type SigStats struct {
	Rises, Falls uint64
	EnergyJ      float64
}

// Transitions returns the total transition count of the signal group.
func (s SigStats) Transitions() uint64 { return s.Rises + s.Falls }

// Estimator observes the wire bundle cycle by cycle and integrates
// energy. Register Observe in the kernel's Post phase, after the bus
// process has driven the cycle's wire values.
//
// The default observation path is delta-driven: it consumes the bundle's
// dirty mask (Bundle.TakeDirty) and prices only signals that were
// written this cycle, using per-signal constants precomputed at
// construction. An estimator is therefore the bundle's single dirty-mask
// consumer and must observe it every cycle (or be notified of skipped
// idle cycles via ObserveIdle). Clock and leakage depend on the cycle
// count alone, so this path only counts cycles; readers (TotalEnergy,
// Breakdown) bring both sums up to date from the last read, or from the
// shared CycleSum tables when that read lies more than sumStride cycles
// back. The reference path (SetReferencePath) performs the original
// full scan and adds clock and leakage once per cycle; both produce
// bit-identical energies.
type Estimator struct {
	cfg       Config
	prev      [ecbus.NumSignals]uint64 // previous cycle's wires; all-zero at reset, as on silicon
	reference bool

	// Construction-time lookup tables for the per-cycle hot path.
	bitE     [ecbus.NumSignals]float64 // bitEnergy(id)
	mask     [ecbus.NumSignals]uint64  // width mask of id
	sigBits  [ecbus.NumSignals]int     // width of id
	clockJ   float64                   // clock-tree energy per cycle
	decoderJ float64                   // decoder energy per glitching wire
	clockSum *CycleSum                 // shared prefix table of clockJ
	leakSum  *CycleSum                 // shared prefix table of LeakagePerCycleJ

	cycles  uint64
	summed  uint64 // optimized path: the cycle count clock and leakage are integrated to
	perSig  [ecbus.NumSignals]SigStats
	decoder float64 // glitch energy attributed to the decoder module
	clock   float64
	leakage float64
}

// NewEstimator returns an estimator over the given extracted netlist
// configuration.
func NewEstimator(cfg Config) *Estimator {
	e := &Estimator{cfg: cfg, reference: referencePath.Load()}
	for id := ecbus.SignalID(0); id < ecbus.NumSignals; id++ {
		e.bitE[id] = cfg.bitEnergy(id)
		e.mask[id] = ecbus.MaskOf(id)
		e.sigBits[id] = ecbus.Signals[id].Bits
	}
	// Whole-cycle constants keep the exact float expression shapes of the
	// per-cycle reference code so their sums stay bit-identical.
	e.clockJ = cfg.ClockEnergyPerCycleJ()
	e.decoderJ = cfg.DecoderWireEnergyJ()
	e.clockSum = CycleSumOf(e.clockJ)
	e.leakSum = CycleSumOf(cfg.LeakagePerCycleJ)
	return e
}

// Observe integrates one cycle's wire state. The reset reference is the
// all-zero bundle, matching the power-on state of the wires.
func (e *Estimator) Observe(b *ecbus.Bundle) {
	if e.reference {
		e.observeReference(b)
		return
	}
	e.cycles++
	dirty := b.TakeDirty()
	if dirty == 0 {
		return // all idle: no wire was written to a new value
	}
	oldA := e.prev[ecbus.SigA]
	for m := dirty; m != 0; m &= m - 1 {
		id := ecbus.SignalID(bits.TrailingZeros32(m))
		old, new := e.prev[id], b.Get(id)
		if old == new {
			continue // written away and back within the cycle
		}
		rises := logic.RisesMasked(old, new, e.mask[id])
		falls := logic.FallsMasked(old, new, e.mask[id])
		be := e.bitE[id]
		energy := float64(rises)*be*e.cfg.KRise + float64(falls)*be*e.cfg.KFall
		if e.sigBits[id] > 1 {
			opp := logic.CoupledOppositeMasked(old, new, e.mask[id])
			same := logic.CoupledSameMasked(old, new, e.mask[id])
			energy += (float64(opp) - 0.5*float64(same)) * e.cfg.CouplingK * be
		}
		st := &e.perSig[id]
		st.Rises += uint64(rises)
		st.Falls += uint64(falls)
		st.EnergyJ += energy
		e.prev[id] = new
	}
	// Decoder glitching: combinational address-decoder wires toggle
	// (possibly several times) whenever the address inputs change. The
	// address can only have changed if it is dirty.
	if dirty&(1<<uint(ecbus.SigA)) != 0 {
		if ham := logic.HammingMasked(oldA, b.Get(ecbus.SigA), e.mask[ecbus.SigA]); ham > 0 {
			e.decoder += float64(ham) * e.cfg.GlitchWiresPerAddrBit * e.decoderJ
		}
	}
}

// observeReference is the original full-scan observation loop, kept
// verbatim as the golden reference for the delta-driven path.
func (e *Estimator) observeReference(b *ecbus.Bundle) {
	e.cycles++
	e.clock += 2 * 0.5 * e.cfg.ClockCapFF * 1e-15 * e.cfg.VddVolts * e.cfg.VddVolts
	e.leakage += e.cfg.LeakagePerCycleJ
	for id := ecbus.SignalID(0); id < ecbus.NumSignals; id++ {
		old, new := e.prev[id], b.Get(id)
		if old == new {
			continue
		}
		w := ecbus.Signals[id].Bits
		rises := logic.Rises(old, new, w)
		falls := logic.Falls(old, new, w)
		be := e.cfg.bitEnergy(id)
		energy := float64(rises)*be*e.cfg.KRise + float64(falls)*be*e.cfg.KFall
		if w > 1 {
			opp := logic.CoupledOpposite(old, new, w)
			same := logic.CoupledSame(old, new, w)
			energy += (float64(opp) - 0.5*float64(same)) * e.cfg.CouplingK * be
		}
		st := &e.perSig[id]
		st.Rises += uint64(rises)
		st.Falls += uint64(falls)
		st.EnergyJ += energy
	}
	if ham := logic.Hamming(e.prev[ecbus.SigA], b.Get(ecbus.SigA), ecbus.AddrBits); ham > 0 {
		de := 0.5 * e.cfg.DecoderWireCapFF * 1e-15 * e.cfg.VddVolts * e.cfg.VddVolts
		e.decoder += float64(ham) * e.cfg.GlitchWiresPerAddrBit * de
	}
	e.prev = b.Snapshot()
}

// ObserveIdle books n cycles during which no wire changed — the kernel's
// idle-skip fast-forward path. The optimized path only counts them: the
// next read integrates their clock and leakage with the same bits n
// individual Observe calls would give. The reference path adds both
// once per cycle.
func (e *Estimator) ObserveIdle(n uint64) {
	if !e.reference {
		e.cycles += n
		return
	}
	for i := uint64(0); i < n; i++ {
		e.cycles++
		e.clock += e.clockJ
		e.leakage += e.cfg.LeakagePerCycleJ
	}
}

// settle brings the optimized path's clock and leakage up to the cycle
// count: by repeated addition from the last read when it lies within
// sumStride cycles, else from the shared tables. Either way the bits
// are those of one addition per cycle from power-on.
func (e *Estimator) settle() {
	if e.reference {
		return
	}
	if d := e.cycles - e.summed; d > sumStride {
		e.clock, e.leakage = e.clockSum.Sum(e.cycles), e.leakSum.Sum(e.cycles)
	} else {
		for ; d > 0; d-- {
			e.clock += e.clockJ
			e.leakage += e.cfg.LeakagePerCycleJ
		}
	}
	e.summed = e.cycles
}

// Cycles returns the number of observed cycles.
func (e *Estimator) Cycles() uint64 { return e.cycles }

// SignalStats returns the accumulated per-signal statistics.
func (e *Estimator) SignalStats(id ecbus.SignalID) SigStats { return e.perSig[id] }

// InterfaceEnergy returns the energy dissipated on the EC interface
// signals proper (excluding the controller-internal decoder select).
func (e *Estimator) InterfaceEnergy() float64 {
	var sum float64
	for id := ecbus.SignalID(0); id < ecbus.SigSel; id++ {
		sum += e.perSig[id].EnergyJ
	}
	return sum
}

// TotalEnergy returns the full gate-level energy: interface wires,
// decoder select and glitching, clock tree and leakage.
func (e *Estimator) TotalEnergy() float64 {
	e.settle()
	return e.InterfaceEnergy() + e.perSig[ecbus.SigSel].EnergyJ + e.decoder + e.clock + e.leakage
}

// Breakdown is Diesel's "energy for each wire and module" output.
type Breakdown struct {
	PerSignal [ecbus.NumSignals]SigStats
	DecoderJ  float64
	ClockJ    float64
	LeakageJ  float64
	Cycles    uint64
}

// Breakdown returns a copy of the per-module accounting.
func (e *Estimator) Breakdown() Breakdown {
	e.settle()
	return Breakdown{PerSignal: e.perSig, DecoderJ: e.decoder, ClockJ: e.clock, LeakageJ: e.leakage, Cycles: e.cycles}
}

// Total returns the breakdown's total energy.
func (b *Breakdown) Total() float64 {
	var sum float64
	for _, s := range b.PerSignal {
		sum += s.EnergyJ
	}
	return sum + b.DecoderJ + b.ClockJ + b.LeakageJ
}

// String renders the breakdown as a Diesel-style report, largest
// consumers first.
func (b *Breakdown) String() string {
	type row struct {
		name    string
		trans   uint64
		energyJ float64
	}
	rows := make([]row, 0, ecbus.NumSignals+3)
	for id := ecbus.SignalID(0); id < ecbus.NumSignals; id++ {
		s := b.PerSignal[id]
		rows = append(rows, row{id.String(), s.Transitions(), s.EnergyJ})
	}
	rows = append(rows,
		row{"decoder(glitch)", 0, b.DecoderJ},
		row{"clock", 2 * b.Cycles, b.ClockJ},
		row{"leakage", 0, b.LeakageJ})
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].energyJ > rows[j].energyJ })
	var sb strings.Builder
	fmt.Fprintf(&sb, "gate-level energy over %d cycles: %.3f pJ\n", b.Cycles, b.Total()*1e12)
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-16s %10d transitions %12.3f pJ\n", r.name, r.trans, r.energyJ*1e12)
	}
	return sb.String()
}

// CharTable is the characterization product consumed by the
// transaction-level energy models: the average energy per transition for
// each EC interface signal, abstracted over transition types, slopes and
// coupling — exactly the information loss the paper describes between
// the gate-level estimator and the layer models.
type CharTable struct {
	PerTransitionJ [ecbus.NumSignals]float64
}

// Char builds the characterization table from this run. Signals that
// never switched during characterization fall back to their nominal
// ½·C·V² bit energy so the table stays usable on richer workloads.
func (e *Estimator) Char() CharTable {
	var t CharTable
	for id := ecbus.SignalID(0); id < ecbus.NumSignals; id++ {
		s := e.perSig[id]
		if n := s.Transitions(); n > 0 {
			t.PerTransitionJ[id] = s.EnergyJ / float64(n)
		} else {
			t.PerTransitionJ[id] = e.cfg.bitEnergy(id)
		}
	}
	return t
}
