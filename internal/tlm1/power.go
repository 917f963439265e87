package tlm1

import (
	"math/bits"

	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/gatepower"
	"repro/internal/logic"
)

// interfaceMask precomputes the width mask of every priced interface
// signal (all signals below SigSel).
var interfaceMask = func() (m [ecbus.NumSignals]uint64) {
	for id := ecbus.SignalID(0); id < ecbus.NumSignals; id++ {
		m[id] = ecbus.MaskOf(id)
	}
	return m
}()

// interfaceDirty is the dirty-mask subset covering the priced signals.
const interfaceDirty = uint32(1)<<uint(ecbus.SigSel) - 1

// PowerModel is the paper's layer-1 energy model (§3.3, Fig. 5): a
// dedicated module that "defines for each bus interface signal a member
// variable for the new and old value. The new values for all signals are
// set by the different bus phases. The bus process calls the energy
// calculation method after the write phase. [...] Based on these new
// values and the old signal values bit transitions can be recognized and
// energy consumption estimated. This methodology is like a transaction
// level to RTL adapter."
//
// Pricing uses the per-signal average energy per transition from
// gate-level characterization (gatepower.CharTable). The model prices the
// bus interface signals only — the paper's "first model" — so
// controller-internal activity (decoder select and glitching), clock tree
// and leakage are structurally outside its scope; that gap is the main
// source of its underestimation against the gate-level reference
// (Table 2).
type PowerModel struct {
	table gatepower.CharTable

	old       [ecbus.NumSignals]uint64
	new       ecbus.Bundle
	reference bool

	lastCycle float64
	since     float64
	total     float64

	transitions uint64
}

// NewPowerModel creates a layer-1 power model priced with the given
// characterization table. Under core.SetReference(true) it counts
// transitions with the straightforward full scan instead of the dirty
// mask; golden-equivalence tests prove both give identical energies.
func NewPowerModel(table gatepower.CharTable) *PowerModel {
	return &PowerModel{table: table, reference: core.Reference()}
}

// EnergyLastCycle returns the energy in joules dissipated during the
// last clock cycle — the paper's cycle-accurate profiling method.
func (p *PowerModel) EnergyLastCycle() float64 { return p.lastCycle }

// EnergySince returns the energy in joules dissipated since the last
// EnergySince call.
func (p *PowerModel) EnergySince() float64 {
	e := p.since
	p.since = 0
	return e
}

// TotalEnergy returns the total estimated energy in joules.
func (p *PowerModel) TotalEnergy() float64 { return p.total }

// Transitions returns the total number of priced signal transitions.
func (p *PowerModel) Transitions() uint64 { return p.transitions }

// Bundle returns the reconstructed interface-signal values of the
// current cycle — the "transaction level to RTL adapter" output. The
// equivalence tests compare it wire-for-wire against the layer-0 model.
func (p *PowerModel) Bundle() ecbus.Bundle { return p.new }

// beginCycle resets the strobe signals for the new cycle; bus-value
// signals (address, data, controls) hold their previous values, exactly
// like the registered outputs of the layer-0 model.
func (p *PowerModel) beginCycle() {
	for _, s := range [...]ecbus.SignalID{
		ecbus.SigAValid, ecbus.SigARdy, ecbus.SigRdVal,
		ecbus.SigWDRdy, ecbus.SigRBErr, ecbus.SigWBErr,
	} {
		p.new.SetBool(s, false)
	}
}

// driveAddress reconstructs the address-phase signal values for the
// request at the head of the address FSM.
func (p *PowerModel) driveAddress(tr *ecbus.Transaction) {
	p.new.SetBool(ecbus.SigAValid, true)
	p.new.Set(ecbus.SigA, tr.Addr)
	p.new.SetBool(ecbus.SigInstr, tr.Kind == ecbus.Fetch)
	p.new.SetBool(ecbus.SigWrite, tr.Kind == ecbus.Write)
	p.new.SetBool(ecbus.SigBurst, tr.Burst)
	p.new.SetBool(ecbus.SigBFirst, tr.Burst)
	p.new.SetBool(ecbus.SigBLast, false)
	be := uint8(0b1111)
	if !tr.Burst {
		be, _ = ecbus.ByteEnables(tr.Addr, tr.Width)
	}
	p.new.Set(ecbus.SigBE, uint64(be))
}

// addressAccepted marks the completing cycle of an address phase.
func (p *PowerModel) addressAccepted() {
	p.new.SetBool(ecbus.SigARdy, true)
}

// driveReadBeat reconstructs a delivered read data beat.
func (p *PowerModel) driveReadBeat(data uint32, last bool) {
	p.new.Set(ecbus.SigRData, uint64(data))
	p.new.SetBool(ecbus.SigRdVal, true)
	p.new.SetBool(ecbus.SigBLast, last)
}

// driveReadErrData reconstructs an error-flagged read beat: the slave
// drives the word on the read data bus but the read-valid strobe stays
// low (driveError raises the error strobe in its place).
func (p *PowerModel) driveReadErrData(data uint32) {
	p.new.Set(ecbus.SigRData, uint64(data))
}

// driveWriteData reconstructs the master driving the write data bus
// while a write beat is pending (including its wait cycles).
func (p *PowerModel) driveWriteData(data uint32) {
	p.new.Set(ecbus.SigWData, uint64(data))
}

// driveWriteBeat marks an accepted write data beat.
func (p *PowerModel) driveWriteBeat(last bool) {
	p.new.SetBool(ecbus.SigWDRdy, true)
	p.new.SetBool(ecbus.SigBLast, last)
}

// driveError pulses the bus-error signal of the transaction's direction.
func (p *PowerModel) driveError(k ecbus.Kind) {
	if k.IsRead() {
		p.new.SetBool(ecbus.SigRBErr, true)
	} else {
		p.new.SetBool(ecbus.SigWBErr, true)
	}
}

// strobesHigh reports whether any strobe signal is still high and must
// fall next cycle — the bus may not declare quiescence while a pending
// falling transition carries energy.
func (p *PowerModel) strobesHigh() bool {
	return p.new.Bool(ecbus.SigARdy) || p.new.Bool(ecbus.SigRdVal) ||
		p.new.Bool(ecbus.SigWDRdy) || p.new.Bool(ecbus.SigRBErr) ||
		p.new.Bool(ecbus.SigWBErr)
}

// skipCycles accounts for fast-forwarded idle cycles: no signal changes,
// so each skipped cycle dissipates zero energy — exactly what calcEnergy
// computes for an unchanged bundle.
func (p *PowerModel) skipCycles() {
	p.lastCycle = 0
}

// calcEnergy is the energy calculation the bus process invokes after the
// write phase: recognize bit transitions between the old and new signal
// values and price them with the characterized average energy per
// transition. The default path iterates only signals marked dirty by
// this cycle's phase drivers; the reference path scans all of them.
func (p *PowerModel) calcEnergy() {
	var e float64
	if p.reference {
		for id := ecbus.SignalID(0); id < ecbus.SigSel; id++ {
			if p.old[id] == p.new.Get(id) {
				continue
			}
			n := logic.Hamming(p.old[id], p.new.Get(id), ecbus.Signals[id].Bits)
			e += float64(n) * p.table.PerTransitionJ[id]
			p.transitions += uint64(n)
		}
		p.old = p.new.Snapshot()
	} else {
		for m := p.new.TakeDirty() & interfaceDirty; m != 0; m &= m - 1 {
			id := ecbus.SignalID(bits.TrailingZeros32(m))
			new := p.new.Get(id)
			if p.old[id] == new {
				continue
			}
			n := logic.HammingMasked(p.old[id], new, interfaceMask[id])
			e += float64(n) * p.table.PerTransitionJ[id]
			p.transitions += uint64(n)
			p.old[id] = new
		}
	}
	p.lastCycle = e
	p.since += e
	p.total += e
}
