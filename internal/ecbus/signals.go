package ecbus

// This file defines the canonical EC interface signal set. The layer-0
// model (package rtlbus) drives these wires cycle by cycle; the layer-1
// energy model reconstructs the same bundle from transaction state (the
// paper's "transaction level to RTL adapter") and prices its transitions;
// the characterization flow (package gatepower) keys its energy table by
// these signal IDs.

// SignalID indexes a wire group of the EC interface bundle.
type SignalID int

// EC interface signal groups. Names follow the EC interface specification
// convention (EB_ prefix). SigSel is the bus controller's decoder select
// output — a "subsequent hardware block" in the paper's terms, included
// because the layer-1 model prices decoder activity from the same bundle.
const (
	SigAValid SignalID = iota // master: address valid
	SigARdy                   // slave/controller: address accepted
	SigInstr                  // master: instruction fetch indicator
	SigWrite                  // master: write transaction indicator
	SigBurst                  // master: burst transaction indicator
	SigBFirst                 // master: first beat of burst
	SigBLast                  // master: last beat of burst
	SigBE                     // master: byte enables (4)
	SigA                      // master: address (36)
	SigWData                  // master: write data (32)
	SigRData                  // slave: read data (32)
	SigRdVal                  // slave: read data valid
	SigWDRdy                  // slave: write data accepted
	SigRBErr                  // slave: read bus error
	SigWBErr                  // slave: write bus error
	SigSel                    // controller-internal: decoder select (3)
	NumSignals
)

// SignalDef describes one wire group.
type SignalDef struct {
	ID   SignalID
	Name string
	Bits int
}

// Signals is the canonical bundle layout, indexed by SignalID.
var Signals = [NumSignals]SignalDef{
	{SigAValid, "EB_AValid", 1},
	{SigARdy, "EB_ARdy", 1},
	{SigInstr, "EB_Instr", 1},
	{SigWrite, "EB_Write", 1},
	{SigBurst, "EB_Burst", 1},
	{SigBFirst, "EB_BFirst", 1},
	{SigBLast, "EB_BLast", 1},
	{SigBE, "EB_BE", 4},
	{SigA, "EB_A", AddrBits},
	{SigWData, "EB_WData", DataBits},
	{SigRData, "EB_RData", DataBits},
	{SigRdVal, "EB_RdVal", 1},
	{SigWDRdy, "EB_WDRdy", 1},
	{SigRBErr, "EB_RBErr", 1},
	{SigWBErr, "EB_WBErr", 1},
	{SigSel, "BC_Sel", 3},
}

// String returns the EC specification name of the signal.
func (id SignalID) String() string {
	if id < 0 || id >= NumSignals {
		return "EB_?"
	}
	return Signals[id].Name
}

// Bits returns the wire count of the signal group.
func (id SignalID) Bits() int {
	if id < 0 || id >= NumSignals {
		return 0
	}
	return Signals[id].Bits
}

// signalMask holds the width mask of every signal group, precomputed so
// the per-cycle Set path never rebuilds it.
var signalMask = func() (m [NumSignals]uint64) {
	for i, s := range Signals {
		if s.Bits >= 64 {
			m[i] = ^uint64(0)
		} else {
			m[i] = (uint64(1) << uint(s.Bits)) - 1
		}
	}
	return m
}()

// MaskOf returns the precomputed width mask of signal id.
func MaskOf(id SignalID) uint64 { return signalMask[id] }

// Bundle is one cycle's value of every EC interface signal group, plus a
// dirty mask recording which groups have been written to a *different*
// value since the mask was last taken.
//
// Dirty-mask contract: Set and SetBool are the only write paths; they
// mark a signal dirty exactly when its value changes. A per-cycle
// consumer (the gate-level estimator, the layer-1 transition counter)
// calls TakeDirty once per observation, iterates only the returned bits,
// and thereby stays aligned with its own previous-value snapshot. The
// mask is a superset of the actual transitions: a signal written away
// and back within one cycle is dirty but equal, so consumers still
// compare values. Values wider than the group width are impossible
// through this API; Normalize remains for defensive masking.
type Bundle struct {
	v     [NumSignals]uint64
	dirty uint32
}

// Set assigns value v (masked to the group width) to signal id, marking
// it dirty if the value changed.
func (b *Bundle) Set(id SignalID, v uint64) {
	v &= signalMask[id]
	if b.v[id] != v {
		b.v[id] = v
		b.dirty |= 1 << uint(id)
	}
}

// SetBool assigns a single-bit signal, marking it dirty if it changed.
func (b *Bundle) SetBool(id SignalID, v bool) {
	var x uint64
	if v {
		x = 1
	}
	if b.v[id] != x {
		b.v[id] = x
		b.dirty |= 1 << uint(id)
	}
}

// Get returns the value of signal id.
func (b *Bundle) Get(id SignalID) uint64 { return b.v[id] }

// Bool returns a single-bit signal as bool.
func (b *Bundle) Bool(id SignalID) bool { return b.v[id] != 0 }

// Snapshot returns a copy of the raw signal values.
func (b *Bundle) Snapshot() [NumSignals]uint64 { return b.v }

// TakeDirty returns the dirty mask and clears it. The per-cycle consumer
// that maintains a previous-value snapshot owns this call; a bundle must
// have exactly one such consumer.
func (b *Bundle) TakeDirty() uint32 {
	d := b.dirty
	b.dirty = 0
	return d
}
