// Package tlm2 implements the paper's transaction-level layer-2 model of
// the EC bus (§3.2): timed but not cycle accurate, data transferred by
// pointer passing, a burst transfer performed as a single transaction.
//
// Master interface (paper): "There are only two data interface functions
// as master interface, one for read access and one for write access."
// Here the master drives layer 2 through the same Access call as every
// other layer (core.Initiator), so one master and one corpus run at any
// layer: the transaction's kind selects read, write or instruction
// fetch, its Data slice is the data pointer, and a burst is one
// transaction whose data phase moves as a single block.
//
// Internal structure (paper Fig. 4): one bus process sensitive to the
// falling clock edge and one shared data structure for communication
// between the interface functions and the bus process. "This model
// requests the actual wait states of the slave when the request is
// created during the first interface call" — that early sample touches
// the slave interface exactly as the paper's model does, but its value
// is deliberately discarded: the authoritative wait count, which also
// drives the idle-skip scheduling hint, comes exclusively from the
// re-sample at address-phase start, the same sampling point layers 0
// and 1 use — so a stale busy-window reading taken in a deep queue can
// never leak into the skip window. The bus process decrements the
// address wait counter until the address phase finishes, then the data
// wait counter until the data phase finishes, with whole bursts counted
// as one block; unlike layers 0/1, a data phase cannot complete in the
// same cycle as its address phase, the other structural timing error
// (Table 1 reports +0.5% for the layer-2 model).
package tlm2

import (
	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// request is the entry of the shared request data structure.
type request struct {
	tr  *ecbus.Transaction
	sel int // slave index in the map, decoded at creation; -1 on a miss
	err bool

	started bool   // address phase began (wait count re-sampled)
	addrCnt int    // remaining address wait states
	dataCnt int    // remaining data phase cycles after the first
	joined  uint64 // cycle the request entered its data phase
}

// Bus is the layer-2 EC bus model. Its ledger admits and retires
// transactions (core.Ledger); the bus queues and times them.
type Bus struct {
	core.Ledger

	m     *ecbus.Map
	cycle uint64

	// The shared request data structure (paper Fig. 4), indexed by
	// lifecycle position: a request is created in a slot of addrQ, moves
	// by value to the read or write ring when its address phase
	// finishes, and leaves when its data phase completes. Address phases
	// complete in creation order and data phases in order per direction,
	// so fixed FIFO rings realize the "oldest request in state X"
	// selection without scanning, and a request costs no allocation.
	addrQ  ecbus.Ring[request]
	readQ  ecbus.Ring[request]
	writeQ ecbus.Ring[request]

	power *PowerModel
	mx    *metrics.Registry
}

// New creates a layer-2 bus over the address map and registers the bus
// process on the kernel's falling edge, with a quiescence hint so the
// kernel can fast-forward pure wait-state countdowns and idle gaps.
func New(k *sim.Kernel, m *ecbus.Map) *Bus {
	b := &Bus{m: m, cycle: ^uint64(0)}
	k.AtHinted(sim.Falling, "tlm2-bus", b.busProcess, b.hint, b.onSkip)
	return b
}

// hint reports the earliest future cycle with bus activity: phase
// completions (which move requests, book energy and touch slaves) must
// execute, while pure countdown ticks only decrement a counter and can
// be fast-forwarded. The layer-2 power model books energy per phase, so
// skipped countdown cycles dissipate nothing by construction. A wake
// cycle (core.Ledger.Wake) executes too.
func (b *Bus) hint(now uint64) uint64 {
	if b.Wake(now) {
		return now
	}
	next := sim.NoEvent
	if !b.addrQ.Empty() {
		r := b.addrQ.Front()
		switch {
		case r.tr.IssueCycle > now:
			next = r.tr.IssueCycle
		case !r.started:
			return now // phase-start tick re-samples the wait count
		case r.addrCnt > 0:
			next = now + uint64(r.addrCnt)
		default:
			return now // completion tick
		}
	}
	if !b.readQ.Empty() {
		r := b.readQ.Front()
		if r.joined >= now || r.dataCnt == 0 {
			return now // no-op join tick or completion tick
		}
		if c := now + uint64(r.dataCnt); c < next {
			next = c
		}
	}
	if !b.writeQ.Empty() {
		r := b.writeQ.Front()
		if r.joined >= now || r.dataCnt == 0 {
			return now
		}
		if c := now + uint64(r.dataCnt); c < next {
			next = c
		}
	}
	return next
}

// onSkip decrements the head counters across n fast-forwarded cycles
// exactly as n countdown ticks would have. The kernel never skips past a
// completion (hint returns now on those cycles), so n is bounded by the
// remaining counts.
func (b *Bus) onSkip(n uint64) {
	first := b.cycle + 1 // first fast-forwarded cycle
	b.cycle += n
	if !b.addrQ.Empty() {
		if r := b.addrQ.Front(); r.started && r.tr.IssueCycle <= first && r.addrCnt > 0 {
			r.addrCnt -= int(n)
			b.mx.WaitCycles(n)
		}
	}
	if !b.readQ.Empty() {
		if r := b.readQ.Front(); r.joined < first && r.dataCnt > 0 {
			r.dataCnt -= int(n)
			b.mx.WaitCycles(n)
		}
	}
	if !b.writeQ.Empty() {
		if r := b.writeQ.Front(); r.joined < first && r.dataCnt > 0 {
			r.dataCnt -= int(n)
			b.mx.WaitCycles(n)
		}
	}
}

// AttachPower connects the layer-2 per-phase energy model.
func (b *Bus) AttachPower(p *PowerModel) *Bus {
	b.power = p
	return b
}

// Power returns the attached power model, or nil.
func (b *Bus) Power() *PowerModel { return b.power }

// AttachMetrics connects an observability registry (nil detaches). The
// per-slave energy table is bound to the address map's decode order.
// Layer 2 samples energy at its per-phase booking sites, so the
// attribution is exact per phase kind and per slave.
func (b *Bus) AttachMetrics(reg *metrics.Registry) *Bus {
	b.mx = reg
	b.SetMetrics(reg)
	reg.BindSlaves(b.m.Names()...)
	return b
}

// sampleEnergy attributes everything the power model booked since the
// previous sample to one phase kind and the slave with index sel. Only
// called when a registry is attached.
func (b *Bus) sampleEnergy(kind metrics.PhaseKind, sel int) {
	var t float64
	if b.power != nil {
		t = b.power.TotalEnergy()
	}
	b.mx.EnergySample(kind, sel, t)
}

// Access is the master interface, with layer-1 semantics so the
// hierarchical framework drives every layer with one master. The first
// call creates the request in the shared list, sampling the slave state
// immediately as the paper's model does; the master then reads the
// outcome the ledger stamps.
func (b *Bus) Access(tr *ecbus.Transaction) ecbus.BusState {
	st := b.Admit(tr, b.cycle+1)
	if st == ecbus.StateRequest {
		b.addrQ.Push(request{tr: tr})
		b.sampleSlaveState(b.addrQ.Back())
	}
	return st
}

// sampleSlaveState decodes the request once and requests the slave's
// wait states and rights at request creation ("during the first
// interface call"). The dynamic extra wait is requested here to honour
// the paper's first-call slave interaction, but its value is discarded:
// addrCnt is written only by startAddrPhase, so neither the countdown
// nor the idle-skip hint can ever see a stale creation-time busy-window
// sample.
func (b *Bus) sampleSlaveState(r *request) {
	sel, ok := b.m.Lookup(r.tr.Kind, r.tr.Addr, r.tr.Words()*4)
	r.sel = sel
	if !ok {
		r.err = true
		return
	}
	t := b.m.Target(sel)
	_ = t.ExtraWait(r.tr.Kind, r.tr.Addr)
	dw := t.Config.WriteWait
	if r.tr.Kind.IsRead() {
		dw = t.Config.ReadWait
	}
	n := r.tr.Words()
	// Whole data phase as one block: first beat after dw waits, each
	// further beat after dw+1 cycles.
	r.dataCnt = dw + (n-1)*(dw+1)
}

// startAddrPhase re-samples the slave's dynamic wait state the cycle
// the address phase actually begins, matching the sampling point of
// layers 0 and 1. Decode/rights legality and the data-phase length are
// static and keep their creation-time values.
func (b *Bus) startAddrPhase(r *request) {
	r.started = true
	if !r.err {
		t := b.m.Target(r.sel)
		r.addrCnt = t.Config.AddrWait + t.ExtraWait(r.tr.Kind, r.tr.Addr)
	}
}

// busProcess advances the three phases each falling edge.
func (b *Bus) busProcess(cycle uint64) {
	b.cycle = cycle
	b.addressPhase(cycle)
	b.dataPhase(cycle, &b.readQ)
	b.dataPhase(cycle, &b.writeQ)
}

// addressPhase serves the request at the head of the address queue.
func (b *Bus) addressPhase(cycle uint64) {
	if b.addrQ.Empty() {
		return
	}
	r := b.addrQ.Front()
	if r.tr.IssueCycle > cycle {
		return
	}
	if !r.started {
		b.startAddrPhase(r)
	}
	if r.addrCnt > 0 {
		r.addrCnt--
		b.mx.WaitCycle()
		return
	}
	r.tr.AddrCycle = cycle
	if b.power != nil {
		b.power.addressPhaseEnergy(r.tr)
	}
	if b.mx != nil {
		b.sampleEnergy(metrics.PhaseAddress, r.sel)
	}
	if r.err {
		if b.power != nil {
			b.power.errorEnergy(r.tr.Kind)
		}
		if b.mx != nil {
			b.sampleEnergy(metrics.PhaseError, r.sel)
		}
		b.Retire(r.tr, cycle, true, r.sel)
		b.addrQ.Pop()
		return
	}
	r.joined = cycle
	if r.tr.Kind.IsRead() {
		b.readQ.Push(*r)
	} else {
		b.writeQ.Push(*r)
	}
	b.addrQ.Pop()
}

// dataPhase serves the request at the head of one direction queue. A
// request that entered its data phase this cycle starts counting next
// cycle (no same-cycle address+data completion at layer 2).
func (b *Bus) dataPhase(cycle uint64, q *ecbus.Ring[request]) {
	if q.Empty() {
		return
	}
	r := q.Front()
	if r.joined == cycle {
		return
	}
	if r.dataCnt > 0 {
		r.dataCnt--
		b.mx.WaitCycle()
		return
	}
	b.completeData(r, cycle)
	q.Pop()
}

// completeData finishes a request's data phase: the block transfer is
// performed at once (pointer passing) and the energy of the whole phase
// is estimated in one step.
func (b *Bus) completeData(r *request, cycle uint64) {
	tr, sl := r.tr, b.m.Target(r.sel).Slave
	ok := true
	w := tr.Width
	if tr.Burst {
		w = ecbus.W32
	}
	delivered := 0
	for i := range tr.Data {
		addr := tr.Addr + uint64(4*i)
		if tr.Kind.IsRead() {
			var v uint32
			v, ok = sl.ReadWord(addr, w)
			tr.Data[i] = v
		} else {
			ok = sl.WriteWord(addr, tr.Data[i], w)
		}
		delivered++
		if !ok {
			break
		}
	}
	if b.power != nil {
		b.power.dataPhaseEnergy(tr, delivered, !ok)
	}
	if b.mx != nil {
		kind := metrics.PhaseWriteData
		if tr.Kind.IsRead() {
			kind = metrics.PhaseReadData
		}
		b.sampleEnergy(kind, r.sel)
	}
	if !ok && b.power != nil {
		b.power.errorEnergy(tr.Kind)
	}
	if b.mx != nil {
		if !ok {
			b.sampleEnergy(metrics.PhaseError, r.sel)
		}
		b.mx.Beats(delivered)
	}
	b.Retire(tr, cycle, !ok, r.sel)
}
