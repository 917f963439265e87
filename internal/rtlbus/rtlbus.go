// Package rtlbus is the layer-0 (signal/cycle-true) model of the EC bus
// interface unit and bus controller. It is this repository's substitute
// for the paper's RTL/gate-level reference: the timing golden model that
// the transaction-level layer-1 and layer-2 models are measured against,
// and the signal source for the gate-level power estimator (package
// gatepower), which observes the wire bundle it drives every cycle.
//
// # Protocol timing rules
//
// These rules are the authoritative definition of the modelled EC
// interface subset. The layer-1 model implements the same rules
// independently (queue-based rather than FSM-based); equivalence is
// enforced by property tests in package core.
//
//   - Masters present requests on the rising edge; the bus executes on
//     the falling edge of the same cycle (paper Fig. 2).
//   - Address phases are strictly serialized in acceptance order (one
//     address bus). A transaction's address phase starts the cycle it is
//     at the head of the address queue and occupies 1+AW cycles, where
//     AW = slave AddrWait + dynamic extra wait sampled at phase start.
//     With AW = 0 the phase completes the cycle it starts ("address and
//     data phases can complete in the same cycle they are initiated").
//   - Data phases are per direction: the read data bus serves fetches
//     and data reads in address-completion order; the write data bus
//     serves writes. The two directions proceed concurrently, so a read
//     issued after a write may complete first (the EC "reordering").
//   - Each data beat takes 1+DW cycles (DW = ReadWait or WriteWait).
//     Beat 0 of a transaction may complete in the same cycle as its
//     address phase when the data unit is idle and DW = 0; the request
//     then "passes from the read queue to the finish queue in one
//     cycle" exactly as in the paper's layer-1 description.
//   - At most one data beat per direction per cycle; after the last beat
//     of a transaction the next transaction's first beat is served no
//     earlier than the following cycle.
//   - Decode misses and access-rights violations terminate the
//     transaction at the end of a 1-cycle address phase and pulse the
//     bus-error signal of the transaction's direction (EB_RBErr or
//     EB_WBErr).
//   - Outstanding transactions are limited to ecbus.MaxOutstanding per
//     category (burst instruction read / burst data read / burst write);
//     a full category rejects the request and the master retries.
package rtlbus

import (
	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Bus is the layer-0 bus interface unit + bus controller. Its ledger
// admits and retires transactions (core.Ledger); the bus queues and
// times them.
type Bus struct {
	core.Ledger

	m     *ecbus.Map
	cycle uint64 // cycle currently being executed (set on falling edge)

	// Address unit. The unit queues are fixed rings: steady-state bus
	// operation allocates nothing.
	addrQ     ecbus.Ring[*ecbus.Transaction]
	addrCnt   int  // cycles already spent on the head's address phase
	addrWaits int  // total wait states for the head (sampled at start)
	addrSel   int  // head's slave index in m, decoded at start; -1 on a miss
	addrErr   bool // head fails decode/rights
	addrNew   bool // head not yet started

	// Data units (per direction), fed by the address unit with the
	// slave index it decoded.
	readQ  ecbus.Ring[entry]
	writeQ ecbus.Ring[entry]
	rBeat  beatState
	wBeat  beatState

	// Wire state driven on the falling edge, observed in the Post phase.
	wires ecbus.Bundle

	// Observability. mxKind/mxSlave classify the cycle being executed
	// (reset at the top of tick, sampled by the Post observer); they are
	// only maintained while a registry is attached.
	mx      *metrics.Registry
	mxKind  metrics.PhaseKind
	mxSlave int
}

// entry is a transaction past its address phase and the index of the
// slave it decoded to.
type entry struct {
	tr  *ecbus.Transaction
	sel int
}

// beatState tracks the data-phase progress of the head of a data queue.
type beatState struct {
	beat  int // next beat index to deliver
	cnt   int // cycles spent waiting on this beat
	waits int // wait states per beat (sampled at phase start)
	fresh bool
}

// New creates a layer-0 bus over the address map and registers its bus
// process on the kernel's falling edge, with a quiescence hint so the
// kernel can fast-forward pure wait-state countdowns and idle gaps.
func New(k *sim.Kernel, m *ecbus.Map) *Bus {
	// cycle starts at all-ones so that a request issued on the rising
	// edge of cycle 0 (before the first falling tick updates the cycle
	// counter) is stamped IssueCycle 0.
	b := &Bus{m: m, cycle: ^uint64(0)}
	k.AtHinted(sim.Falling, "rtlbus", b.tick, b.hint, b.onSkip)
	return b
}

// hint reports the earliest future cycle with bus activity. It returns
// now whenever this cycle's tick changes wire state: a pulse wire left
// high must fall, a phase starts or completes, or a data beat delivers.
// During a pure countdown the wires are re-driven with identical values,
// so those cycles are skippable. It also returns now on a wake cycle
// (core.Ledger.Wake), when a refused master retries.
func (b *Bus) hint(now uint64) uint64 {
	if b.Wake(now) {
		return now
	}
	w := &b.wires
	if w.Bool(ecbus.SigARdy) || w.Bool(ecbus.SigRdVal) || w.Bool(ecbus.SigWDRdy) ||
		w.Bool(ecbus.SigRBErr) || w.Bool(ecbus.SigWBErr) {
		return now // a pulse wire must fall this cycle
	}
	next := sim.NoEvent
	if !b.addrQ.Empty() {
		tr := *b.addrQ.Front()
		switch {
		case tr.IssueCycle > now:
			next = tr.IssueCycle
		case !b.addrNew || b.addrCnt >= b.addrWaits:
			return now // phase start or completion tick
		default:
			next = now + uint64(b.addrWaits-b.addrCnt)
		}
	}
	if !b.readQ.Empty() {
		if !b.rBeat.fresh || b.rBeat.cnt >= b.rBeat.waits {
			return now // phase start or beat delivery tick
		}
		if c := now + uint64(b.rBeat.waits-b.rBeat.cnt); c < next {
			next = c
		}
	}
	if !b.writeQ.Empty() {
		if !b.wBeat.fresh || b.wBeat.cnt < b.wBeat.waits {
			// Write countdown ticks drive the write data bus; the first
			// such tick may change SigWData, so only a started countdown
			// whose data is already driven is skippable. cnt==0 means the
			// current data word may not be on the wires yet.
			if !b.wBeat.fresh || b.wBeat.cnt == 0 {
				return now
			}
			if c := now + uint64(b.wBeat.waits-b.wBeat.cnt); c < next {
				next = c
			}
		} else {
			return now // beat delivery tick
		}
	}
	return next
}

// onSkip advances the bus state across n fast-forwarded cycles exactly
// as n pure-countdown ticks would have.
func (b *Bus) onSkip(n uint64) {
	b.cycle += n
	if !b.addrQ.Empty() && b.addrNew && b.addrCnt < b.addrWaits {
		b.addrCnt += int(n)
		b.mx.WaitCycles(n)
	}
	if !b.readQ.Empty() && b.rBeat.fresh && b.rBeat.cnt < b.rBeat.waits {
		b.rBeat.cnt += int(n)
		b.mx.WaitCycles(n)
	}
	if !b.writeQ.Empty() && b.wBeat.fresh && b.wBeat.cnt > 0 && b.wBeat.cnt < b.wBeat.waits {
		b.wBeat.cnt += int(n)
		b.mx.WaitCycles(n)
	}
}

// Access is the master-side non-blocking interface, shared semantics with
// the layer-1 model: a call presents one attempt and either accepts it
// (StateRequest) or rejects it (StateWait, category full — present
// again next cycle). An accepted transaction's outcome is the stamp
// the ledger writes when it retires; the master reads it and does not
// call again. Masters call it on rising edges.
func (b *Bus) Access(tr *ecbus.Transaction) ecbus.BusState {
	st := b.Admit(tr, b.cycle+1) // accepted for the cycle now being issued
	if st == ecbus.StateRequest {
		b.addrQ.Push(tr)
	}
	return st
}

// Wires returns the wire bundle driven during the current cycle. The
// gate-level power estimator reads it in the Post phase; values of
// registered outputs hold between phases, as on silicon.
func (b *Bus) Wires() *ecbus.Bundle { return &b.wires }

// tick is the bus process (falling edge): address unit first, then the
// two data units, so a zero-wait transaction can traverse address and
// first data beat within one cycle.
func (b *Bus) tick(cycle uint64) {
	b.cycle = cycle
	// Pulse wires default to inactive each cycle; bus-value wires
	// (address, data, controls) hold their previous values.
	b.wires.SetBool(ecbus.SigAValid, false)
	b.wires.SetBool(ecbus.SigARdy, false)
	b.wires.SetBool(ecbus.SigRdVal, false)
	b.wires.SetBool(ecbus.SigWDRdy, false)
	b.wires.SetBool(ecbus.SigRBErr, false)
	b.wires.SetBool(ecbus.SigWBErr, false)

	if b.mx != nil {
		b.mxKind, b.mxSlave = metrics.PhaseIdle, -1
	}
	b.addrUnit(cycle)
	b.readUnit(cycle)
	b.writeUnit(cycle)
}

// addrUnit advances the serialized address phase.
func (b *Bus) addrUnit(cycle uint64) {
	if b.addrQ.Empty() {
		return
	}
	tr := *b.addrQ.Front()
	if tr.IssueCycle > cycle {
		return // accepted later this cycle by a master that runs after us
	}
	if !b.addrNewStarted() {
		b.startAddrPhase(tr)
	}
	b.driveAddrWires(tr)
	if b.mx != nil {
		b.mark(metrics.PhaseAddress, b.addrSel)
	}

	if b.addrCnt < b.addrWaits {
		b.addrCnt++
		b.mx.WaitCycle()
		return
	}
	// Phase completes this cycle.
	b.wires.SetBool(ecbus.SigARdy, true)
	tr.AddrCycle = cycle
	b.addrQ.Pop()
	b.addrNew = false
	if b.addrErr {
		b.completeError(tr, cycle)
		return
	}
	if tr.Kind.IsRead() {
		b.readQ.Push(entry{tr, b.addrSel})
	} else {
		b.writeQ.Push(entry{tr, b.addrSel})
	}
}

func (b *Bus) addrNewStarted() bool { return b.addrNew }

// startAddrPhase decodes the head transaction, once: its slave index,
// decode/rights legality and total address wait states.
func (b *Bus) startAddrPhase(tr *ecbus.Transaction) {
	b.addrNew = true
	b.addrCnt = 0
	sel, ok := b.m.Lookup(tr.Kind, tr.Addr, tr.Words()*4)
	b.addrSel, b.addrErr = sel, !ok
	if !ok {
		b.addrWaits = 0 // errors terminate after a 1-cycle address phase
		return
	}
	t := b.m.Target(sel)
	b.addrWaits = t.Config.AddrWait + t.ExtraWait(tr.Kind, tr.Addr)
}

// driveAddrWires drives the address-phase wires for the active head.
func (b *Bus) driveAddrWires(tr *ecbus.Transaction) {
	b.wires.SetBool(ecbus.SigAValid, true)
	b.wires.Set(ecbus.SigA, tr.Addr)
	b.wires.SetBool(ecbus.SigInstr, tr.Kind == ecbus.Fetch)
	b.wires.SetBool(ecbus.SigWrite, tr.Kind == ecbus.Write)
	b.wires.SetBool(ecbus.SigBurst, tr.Burst)
	b.wires.SetBool(ecbus.SigBFirst, tr.Burst)
	b.wires.SetBool(ecbus.SigBLast, false)
	be := uint8(0b1111)
	if !tr.Burst {
		be, _ = ecbus.ByteEnables(tr.Addr, tr.Width)
	}
	b.wires.Set(ecbus.SigBE, uint64(be))
	idx := b.addrSel
	if idx < 0 {
		idx = 7 // decoder "no select" pattern
	}
	b.wires.Set(ecbus.SigSel, uint64(idx))
}

// completeError finishes a transaction with a bus error and pulses the
// error wire of its direction.
func (b *Bus) completeError(tr *ecbus.Transaction, cycle uint64) {
	if tr.Kind.IsRead() {
		b.wires.SetBool(ecbus.SigRBErr, true)
	} else {
		b.wires.SetBool(ecbus.SigWBErr, true)
	}
	b.retire(tr, cycle, true, b.addrSel)
}

// retire hands a finished transaction, decoded to slave sel, to the
// ledger and classifies a bus error's cycle for energy attribution.
func (b *Bus) retire(tr *ecbus.Transaction, cycle uint64, err bool, sel int) {
	b.Retire(tr, cycle, err, sel)
	if err && b.mx != nil {
		b.mark(metrics.PhaseError, sel)
	}
}

// readUnit serves one read data beat per cycle.
func (b *Bus) readUnit(cycle uint64) {
	if b.readQ.Empty() {
		return
	}
	e := *b.readQ.Front()
	tr, t := e.tr, b.m.Target(e.sel)
	if !b.rBeat.fresh {
		b.rBeat = beatState{waits: t.Config.ReadWait, fresh: true}
	}
	if b.rBeat.cnt < b.rBeat.waits {
		b.rBeat.cnt++
		b.mx.WaitCycle()
		return
	}
	// Deliver beat.
	i := b.rBeat.beat
	addr := tr.Addr + uint64(4*i)
	w := tr.Width
	if tr.Burst {
		w = ecbus.W32
	}
	data, ok := t.Slave.ReadWord(addr, w)
	b.wires.Set(ecbus.SigRData, uint64(data))
	if b.mx != nil {
		b.mark(metrics.PhaseReadData, e.sel)
		b.mx.Beat()
	}
	tr.Data[i] = data
	b.rBeat.beat++
	b.rBeat.cnt = 0
	if !ok {
		// Slave-side read error aborts the transaction at this beat. The
		// error strobe replaces the read-valid strobe for the cycle — the
		// two are mutually exclusive on the EC read bus — and the burst
		// terminates without a last-beat marker. The (possibly corrupted)
		// word the slave drove stays on the read data bus.
		b.wires.SetBool(ecbus.SigRBErr, true)
	} else {
		b.wires.SetBool(ecbus.SigRdVal, true)
		b.wires.SetBool(ecbus.SigBLast, tr.Burst && i == tr.Words()-1)
		if b.rBeat.beat < tr.Words() {
			return
		}
	}
	b.readQ.Pop()
	b.rBeat = beatState{}
	b.retire(tr, cycle, !ok, e.sel)
}

// writeUnit serves one write data beat per cycle.
func (b *Bus) writeUnit(cycle uint64) {
	if b.writeQ.Empty() {
		return
	}
	e := *b.writeQ.Front()
	tr, t := e.tr, b.m.Target(e.sel)
	if !b.wBeat.fresh {
		b.wBeat = beatState{waits: t.Config.WriteWait, fresh: true}
	}
	// The master drives the write data bus while the beat is pending.
	i := b.wBeat.beat
	b.wires.Set(ecbus.SigWData, uint64(tr.Data[i]))
	if b.mx != nil {
		// The write unit drives wires even on wait cycles, so every
		// cycle it acts is classified write-data.
		b.mark(metrics.PhaseWriteData, e.sel)
	}
	if b.wBeat.cnt < b.wBeat.waits {
		b.wBeat.cnt++
		b.mx.WaitCycle()
		return
	}
	addr := tr.Addr + uint64(4*i)
	w := tr.Width
	if tr.Burst {
		w = ecbus.W32
	}
	ok := t.Slave.WriteWord(addr, tr.Data[i], w)
	b.mx.Beat()
	b.wBeat.beat++
	b.wBeat.cnt = 0
	if !ok {
		// Mirror of the read-side rule: the write-error strobe replaces
		// the write-accept strobe, and the burst terminates without a
		// last-beat marker.
		b.wires.SetBool(ecbus.SigWBErr, true)
	} else {
		b.wires.SetBool(ecbus.SigWDRdy, true)
		b.wires.SetBool(ecbus.SigBLast, tr.Burst && i == tr.Words()-1)
		if b.wBeat.beat < tr.Words() {
			return
		}
	}
	b.writeQ.Pop()
	b.wBeat = beatState{}
	b.retire(tr, cycle, !ok, e.sel)
}
