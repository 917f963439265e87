// Package tlm1 implements the paper's transaction-level layer-1 model of
// the EC bus (§3.1): cycle accurate, non-blocking interfaces, internal
// request queues, and a bus process composed of four phases.
//
// Structure (paper Fig. 3): the master-side interfaces store accepted
// requests in the request queue; the bus process runs every falling
// clock edge and executes
//
//	getSlaveState();  // sample slave wait states / rights
//	addressPhase();   // serialized address FSM
//	readPhase();      // read data bus, one beat per cycle
//	writePhase();     // write data bus, one beat per cycle
//
// after which finished requests are "pushed into the finish queue" — here
// marked Done on the transaction — and picked up by the master's next
// interface call. Read and write phases could run in parallel; "in our
// model the two phases are processed sequentially", as in the paper.
//
// The model is cycle-equivalent to the layer-0 model (package rtlbus) by
// construction of the shared protocol rules; equivalence over random
// corpora is enforced by property tests in the layers package.
//
// Energy (§3.3, Fig. 5): an attached PowerModel keeps an old and a new
// value for every bus interface signal; each bus phase updates the new
// values, and after the write phase the bus process invokes the energy
// calculation, which recognizes bit transitions and prices them with the
// characterized average energy per transition — "like a transaction
// level to RTL adapter".
package tlm1

import (
	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// entry is a request in flight, carrying the slave state sampled by
// getSlaveState at its address-phase start.
type entry struct {
	tr  *ecbus.Transaction
	sel int // slave index in the map; -1 on a decode miss
	err bool
	aw  int // address wait states (incl. dynamic extra)
	dw  int // data wait states per beat

	beat    int
	beatCnt int
}

// Bus is the layer-1 EC bus model (bus interface unit view plus bus
// controller with address decoder). Its ledger admits and retires
// transactions (core.Ledger); the bus queues and times them.
type Bus struct {
	core.Ledger

	m     *ecbus.Map
	cycle uint64

	// Fixed rings of value-type entries: steady-state bus operation
	// allocates nothing.
	requestQ ecbus.Ring[entry] // accepted, address phase pending
	readQ    ecbus.Ring[entry] // address done, read beats pending
	writeQ   ecbus.Ring[entry] // address done, write beats pending

	addrStarted bool
	addrCnt     int

	power *PowerModel // nil when energy estimation is disabled

	// Observability. mxKind/mxSlave classify the cycle being executed
	// (reset at the top of busProcess, sampled after calcEnergy); they
	// are only maintained while a registry is attached.
	mx      *metrics.Registry
	mxKind  metrics.PhaseKind
	mxSlave int
}

// New creates a layer-1 bus over the address map and registers the bus
// process on the kernel's falling edge, with a quiescence hint so the
// kernel can fast-forward pure wait-state countdowns and idle gaps.
func New(k *sim.Kernel, m *ecbus.Map) *Bus {
	b := &Bus{m: m, cycle: ^uint64(0)}
	k.AtHinted(sim.Falling, "tlm1-bus", b.busProcess, b.hint, b.onSkip)
	return b
}

// hint reports the earliest future cycle with bus activity: the
// completion tick of the head address phase or data beat. It returns now
// whenever this cycle's tick does externally visible work — a phase
// start, a completion, clearing a strobe signal left high by the
// previous cycle, or a wake cycle (core.Ledger.Wake).
func (b *Bus) hint(now uint64) uint64 {
	if b.Wake(now) {
		return now
	}
	if b.power != nil && b.power.strobesHigh() {
		return now // a strobe must fall this cycle; its energy is priced then
	}
	next := sim.NoEvent
	if !b.requestQ.Empty() {
		e := b.requestQ.Front()
		switch {
		case e.tr.IssueCycle > now:
			next = e.tr.IssueCycle
		case !b.addrStarted || b.addrCnt >= e.aw:
			return now // phase start or completion tick
		default:
			next = now + uint64(e.aw-b.addrCnt)
		}
	}
	if !b.readQ.Empty() {
		e := b.readQ.Front()
		if e.beatCnt >= e.dw {
			return now // beat delivery tick
		}
		if c := now + uint64(e.dw-e.beatCnt); c < next {
			next = c
		}
	}
	if !b.writeQ.Empty() {
		e := b.writeQ.Front()
		if e.beatCnt >= e.dw {
			return now
		}
		if c := now + uint64(e.dw-e.beatCnt); c < next {
			next = c
		}
	}
	return next
}

// onSkip advances the bus state across n fast-forwarded cycles exactly as
// n ticks of pure countdown would have: the cycle stamp, the head
// counters of each unit, and the power model's last-cycle energy.
func (b *Bus) onSkip(n uint64) {
	b.cycle += n
	if !b.requestQ.Empty() && b.addrStarted {
		if e := b.requestQ.Front(); b.addrCnt < e.aw {
			b.addrCnt += int(n)
			b.mx.WaitCycles(n)
		}
	}
	if !b.readQ.Empty() {
		if e := b.readQ.Front(); e.beatCnt < e.dw {
			e.beatCnt += int(n)
			b.mx.WaitCycles(n)
		}
	}
	if !b.writeQ.Empty() {
		if e := b.writeQ.Front(); e.beatCnt < e.dw {
			e.beatCnt += int(n)
			b.mx.WaitCycles(n)
		}
	}
	if b.power != nil {
		b.power.skipCycles()
	}
}

// AttachPower connects the dedicated power-estimation module; the bus
// process will invoke its energy calculation after the write phase each
// cycle. Returns the bus for chaining.
func (b *Bus) AttachPower(p *PowerModel) *Bus {
	b.power = p
	return b
}

// Power returns the attached power model, or nil.
func (b *Bus) Power() *PowerModel { return b.power }

// AttachMetrics connects an observability registry (nil detaches). The
// per-slave energy table is bound to the address map's decode order.
// Layer 1 samples energy once per executed cycle, after calcEnergy,
// classified by the phase that acted (priority: error > write-data >
// read-data > address); trailing strobe falls are attributed by the
// registry's carry rule. Skipped cycles dissipate nothing at this
// layer, so they need no sample.
func (b *Bus) AttachMetrics(reg *metrics.Registry) *Bus {
	b.mx = reg
	b.SetMetrics(reg)
	reg.BindSlaves(b.m.Names()...)
	return b
}

// mark classifies the executing cycle for energy attribution, keeping
// the highest-priority phase kind when several phases act at once.
func (b *Bus) mark(kind metrics.PhaseKind, slave int) {
	if b.mxKind == metrics.PhaseIdle || kind > b.mxKind {
		b.mxKind, b.mxSlave = kind, slave
	}
}

// Access is the non-blocking master interface (both the instruction and
// the data interface dispatch here; the transaction kind distinguishes
// them). Semantics per the paper: "request means the request has been
// accepted, wait means the request is in progress, error indicates a bus
// error, ok indicates a finished bus request". Where the paper's master
// keeps invoking it until ok or error, this master presents a request
// until it is accepted and then reads the outcome the ledger stamps on
// the transaction, on the cycle that invocation would have returned it.
func (b *Bus) Access(tr *ecbus.Transaction) ecbus.BusState {
	st := b.Admit(tr, b.cycle+1)
	if st == ecbus.StateRequest {
		b.requestQ.Push(entry{tr: tr})
	}
	return st
}

// busProcess is the falling-edge SC_METHOD equivalent.
func (b *Bus) busProcess(cycle uint64) {
	b.cycle = cycle
	if b.power != nil {
		b.power.beginCycle()
	}
	if b.mx != nil {
		b.mxKind, b.mxSlave = metrics.PhaseIdle, -1
	}
	b.addressPhase(cycle) // getSlaveState happens at each phase start
	b.readPhase(cycle)
	b.writePhase(cycle)
	if b.power != nil {
		b.power.calcEnergy()
	}
	if b.mx != nil {
		var t float64
		if b.power != nil {
			t = b.power.TotalEnergy()
		}
		b.mx.EnergySample(b.mxKind, b.mxSlave, t)
	}
}

// getSlaveState samples the slave control interface for the request at
// the head of the request queue: "the address range of the slave, wait
// states for address, read, and write phases, and bits to indicate the
// access rights". It decodes the request once; every later phase reads
// the slave index it leaves in the entry.
func (b *Bus) getSlaveState(e *entry) {
	sel, ok := b.m.Lookup(e.tr.Kind, e.tr.Addr, e.tr.Words()*4)
	e.sel = sel
	if !ok {
		e.err = true
		e.aw = 0
		return
	}
	t := b.m.Target(sel)
	e.aw = t.Config.AddrWait + t.ExtraWait(e.tr.Kind, e.tr.Addr)
	if e.tr.Kind.IsRead() {
		e.dw = t.Config.ReadWait
	} else {
		e.dw = t.Config.WriteWait
	}
}

// addressPhase is the serialized address FSM.
func (b *Bus) addressPhase(cycle uint64) {
	if b.requestQ.Empty() {
		return
	}
	e := b.requestQ.Front()
	if e.tr.IssueCycle > cycle {
		return
	}
	if !b.addrStarted {
		b.addrStarted = true
		b.addrCnt = 0
		b.getSlaveState(e)
	}
	if b.power != nil {
		b.power.driveAddress(e.tr)
	}
	if b.mx != nil {
		b.mark(metrics.PhaseAddress, e.sel)
	}
	if b.addrCnt < e.aw {
		b.addrCnt++
		b.mx.WaitCycle()
		return
	}
	e.tr.AddrCycle = cycle
	ent := *e // copy out before the slot is recycled
	b.requestQ.Pop()
	b.addrStarted = false
	if b.power != nil {
		b.power.addressAccepted()
	}
	switch {
	case ent.err:
		b.retire(ent.tr, cycle, true, ent.sel)
	case ent.tr.Kind.IsRead():
		b.readQ.Push(ent)
	default:
		b.writeQ.Push(ent)
	}
}

// retire hands a finished transaction, decoded to slave sel, to the
// ledger; a bus error raises the error strobe of its direction and
// classifies the cycle for energy attribution.
func (b *Bus) retire(tr *ecbus.Transaction, cycle uint64, err bool, sel int) {
	b.Retire(tr, cycle, err, sel)
	if !err {
		return
	}
	if b.power != nil {
		b.power.driveError(tr.Kind)
	}
	if b.mx != nil {
		b.mark(metrics.PhaseError, sel)
	}
}

// readPhase serves one read beat per cycle from the head of the read
// queue.
func (b *Bus) readPhase(cycle uint64) {
	if b.readQ.Empty() {
		return
	}
	e := b.readQ.Front()
	if e.beatCnt < e.dw {
		e.beatCnt++
		b.mx.WaitCycle()
		return
	}
	i := e.beat
	addr := e.tr.Addr + uint64(4*i)
	w := e.tr.Width
	if e.tr.Burst {
		w = ecbus.W32
	}
	data, ok := b.m.Target(e.sel).Slave.ReadWord(addr, w)
	e.tr.Data[i] = data
	if b.mx != nil {
		b.mark(metrics.PhaseReadData, e.sel)
		b.mx.Beat()
	}
	if b.power != nil {
		if ok {
			b.power.driveReadBeat(data, e.tr.Burst && i == e.tr.Words()-1)
		} else {
			// Errored beat: the slave still drives the (possibly
			// corrupted) word, but the error strobe — raised by the
			// finish path below — replaces the read-valid strobe, and
			// the last-beat marker is not driven.
			b.power.driveReadErrData(data)
		}
	}
	e.beat++
	e.beatCnt = 0
	if ok && e.beat < e.tr.Words() {
		return
	}
	tr, sel := e.tr, e.sel
	b.readQ.Pop() // invalidates e
	b.retire(tr, cycle, !ok, sel)
}

// writePhase serves one write beat per cycle from the head of the write
// queue.
func (b *Bus) writePhase(cycle uint64) {
	if b.writeQ.Empty() {
		return
	}
	e := b.writeQ.Front()
	i := e.beat
	if b.power != nil {
		// The master drives the write data bus while the beat pends.
		b.power.driveWriteData(e.tr.Data[i])
	}
	if b.mx != nil {
		// The write unit drives wires even on wait cycles, so every
		// cycle it acts is classified write-data.
		b.mark(metrics.PhaseWriteData, e.sel)
	}
	if e.beatCnt < e.dw {
		e.beatCnt++
		b.mx.WaitCycle()
		return
	}
	addr := e.tr.Addr + uint64(4*i)
	w := e.tr.Width
	if e.tr.Burst {
		w = ecbus.W32
	}
	ok := b.m.Target(e.sel).Slave.WriteWord(addr, e.tr.Data[i], w)
	b.mx.Beat()
	if b.power != nil && ok {
		// On an errored beat the error strobe (finish path) replaces
		// the write-accept strobe and no last-beat marker is driven.
		b.power.driveWriteBeat(e.tr.Burst && i == e.tr.Words()-1)
	}
	e.beat++
	e.beatCnt = 0
	if ok && e.beat < e.tr.Words() {
		return
	}
	tr, sel := e.tr, e.sel
	b.writeQ.Pop() // invalidates e
	b.retire(tr, cycle, !ok, sel)
}
