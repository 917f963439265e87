// Package tlm2 implements the paper's transaction-level layer-2 model of
// the EC bus (§3.2): timed but not cycle accurate, data transferred by
// pointer passing, a burst transfer performed as a single transaction.
//
// Master interface (paper): "There are only two data interface functions
// as master interface, one for read access and one for write access.
// Parameters are the data pointer, the number of bytes transferred, the
// address, and an instruction bit, which indicates an instruction
// fetch." These are Bus.Read and Bus.Write; an Access adapter with
// layer-1 semantics is provided so the same masters and corpora drive
// every layer.
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
	"repro/internal/ecbus"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// request is the entry of the shared request data structure.
type request struct {
	tr    *ecbus.Transaction
	slave ecbus.Slave
	err   bool

	started bool   // address phase began (wait count re-sampled)
	addrCnt int    // remaining address wait states
	dataCnt int    // remaining data phase cycles after the first
	joined  uint64 // cycle the request entered its data phase

	readback []byte // native-interface read destination (pointer passing)
}

// Bus is the layer-2 EC bus model.
type Bus struct {
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

	// outstanding counts accepted requests per category and tells
	// Access when a cycle-0 stamp is ambiguous (see isQueued).
	outstanding ecbus.Outstanding

	power *PowerModel
	mx    *metrics.Registry

	stats Stats
}

// Stats aggregates bus activity counters.
type Stats struct {
	Accepted  uint64
	Completed uint64
	Errors    uint64
	Rejected  uint64
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
// cycle (ecbus.Outstanding.Wake) executes too.
func (b *Bus) hint(now uint64) uint64 {
	if b.outstanding.Wake(now) {
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
	names := make([]string, 0, len(b.m.Slaves()))
	for _, s := range b.m.Slaves() {
		names = append(names, s.Config().Name)
	}
	reg.BindSlaves(names...)
	return b
}

// sampleEnergy attributes everything the power model booked since the
// previous sample to one phase kind and the slave decoded from addr.
// Only called when a registry is attached.
func (b *Bus) sampleEnergy(kind metrics.PhaseKind, addr uint64) {
	var t float64
	if b.power != nil {
		t = b.power.TotalEnergy()
	}
	b.mx.EnergySample(kind, b.m.Index(addr), t)
}

// Stats returns a copy of the activity counters.
func (b *Bus) Stats() Stats { return b.stats }

// Idle reports whether no request is in flight.
func (b *Bus) Idle() bool {
	return b.addrQ.Empty() && b.readQ.Empty() && b.writeQ.Empty()
}

// Ticket tracks a pointer-interface request to completion.
type Ticket struct {
	tr *ecbus.Transaction
}

// Done reports whether the request has finished.
func (t *Ticket) Done() bool { return t.tr.Done }

// Err reports whether the request finished with a bus error.
func (t *Ticket) Err() bool { return t.tr.Err }

// EndCycle returns the cycle the request completed.
func (t *Ticket) EndCycle() uint64 { return t.tr.DataCycle }

// Read is the native layer-2 master read function: transfer nbytes from
// addr into p (len(p) >= nbytes), instr marking instruction fetches. The
// whole block is one transaction. It returns nil if the bus cannot
// accept the request this cycle (outstanding limit; retry next cycle).
func (b *Bus) Read(p []byte, nbytes int, addr uint64, instr bool) *Ticket {
	kind := ecbus.Read
	if instr {
		kind = ecbus.Fetch
	}
	tr := blockTransaction(kind, addr, nbytes)
	if st := b.Access(tr); st == ecbus.StateWait {
		return nil // rejected: category full, retry next cycle
	}
	t := &Ticket{tr: tr}
	b.bindReadback(tr, p, nbytes)
	return t
}

// Write is the native layer-2 master write function: transfer nbytes
// from p to addr as one transaction. Returns nil if the bus cannot
// accept the request this cycle.
func (b *Bus) Write(p []byte, nbytes int, addr uint64) *Ticket {
	tr := blockTransaction(ecbus.Write, addr, nbytes)
	for i := 0; i < nbytes; i++ {
		tr.Data[i/4] |= uint32(p[i]) << (8 * (i % 4))
	}
	if st := b.Access(tr); st == ecbus.StateWait {
		return nil
	}
	return &Ticket{tr: tr}
}

// bindReadback arranges for read data to land in the caller's buffer at
// completion (pointer passing: no per-beat copies). An accepted request
// was just created, so it is the newest entry of the address queue; a
// request that failed validation is not queued and binds nothing.
func (b *Bus) bindReadback(tr *ecbus.Transaction, p []byte, nbytes int) {
	if r := b.addrQ.Back(); !b.addrQ.Empty() && r.tr == tr {
		r.readback = p[:nbytes]
	}
}

// blockTransaction wraps an arbitrary-length block as one layer-2
// transaction. Blocks longer than one word are burst-like; their word
// count may exceed ecbus.BurstLen since layer 2 merges entire transfers.
func blockTransaction(kind ecbus.Kind, addr uint64, nbytes int) *ecbus.Transaction {
	words := (nbytes + 3) / 4
	if words < 1 {
		words = 1
	}
	w := ecbus.W32
	if words == 1 {
		switch nbytes {
		case 1:
			w = ecbus.W8
		case 2:
			w = ecbus.W16
		}
	}
	return &ecbus.Transaction{
		Kind:  kind,
		Addr:  addr & ecbus.AddrMask,
		Width: w,
		Burst: words > 1,
		Data:  make([]uint32, words),
	}
}

// Access provides layer-1 Access semantics over the layer-2 engine so
// the hierarchical framework can drive both layers with one master. The
// first call creates the request in the shared list (sampling the slave
// state immediately, per the paper); later calls poll.
func (b *Bus) Access(tr *ecbus.Transaction) ecbus.BusState {
	if tr.Done {
		if tr.Err {
			return ecbus.StateError
		}
		return ecbus.StateOK
	}
	if tr.IssueCycle != 0 || b.outstanding.Ambiguous() && b.isQueued(tr) {
		return ecbus.StateWait
	}
	cat := tr.Category()
	if b.outstanding.Full(cat) {
		b.Refused(1)
		return ecbus.StateWait
	}
	if tr.Burst && len(tr.Data) != ecbus.BurstLen {
		// Layer-2 native blocks may be any length; only canonical
		// transactions are validated strictly.
		if len(tr.Data) == 0 {
			tr.Done, tr.Err = true, true
			b.stats.Errors++
			b.mx.TxRetired(tr, -1, true)
			return ecbus.StateError
		}
	} else if err := tr.Validate(); err != nil {
		tr.Done, tr.Err = true, true
		b.stats.Errors++
		b.mx.TxRetired(tr, -1, true)
		return ecbus.StateError
	}
	b.addrQ.Push(request{tr: tr})
	b.sampleSlaveState(b.addrQ.Back())
	n := b.outstanding.Accept(tr, b.cycle+1)
	b.stats.Accepted++
	b.mx.TxAccepted(cat, n)
	return ecbus.StateRequest
}

// Refused counts n refusals of a request whose category is full: the
// one Access just made, or those a stalled master (core.Refuser) would
// have made on cycles the kernel skipped.
func (b *Bus) Refused(n uint64) {
	b.outstanding.Refuse()
	b.stats.Rejected += n
	b.mx.TxRejected(n)
}

// isQueued reports whether tr is in any request queue; Access needs it
// only while a request accepted before the first falling edge (stamped
// IssueCycle 0) is in flight.
func (b *Bus) isQueued(tr *ecbus.Transaction) bool {
	is := func(r *request) bool { return r.tr == tr }
	return b.addrQ.Any(is) || b.readQ.Any(is) || b.writeQ.Any(is)
}

// sampleSlaveState requests the slave's wait states and rights at
// request creation ("during the first interface call"). The dynamic
// extra wait is requested here to honour the paper's first-call slave
// interaction, but its value is discarded: addrCnt is written only by
// startAddrPhase, so neither the countdown nor the idle-skip hint can
// ever see a stale creation-time busy-window sample.
func (b *Bus) sampleSlaveState(r *request) {
	sl, err := b.m.Check(r.tr.Kind, r.tr.Addr, len(r.tr.Data)*4)
	if err != nil {
		r.err = true
		return
	}
	r.slave = sl
	cfg := sl.Config()
	_ = ecbus.ExtraWaitOf(sl, r.tr.Kind, r.tr.Addr)
	dw := cfg.WriteWait
	if r.tr.Kind.IsRead() {
		dw = cfg.ReadWait
	}
	n := len(r.tr.Data)
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
	if r.slave != nil {
		cfg := r.slave.Config()
		r.addrCnt = cfg.AddrWait + ecbus.ExtraWaitOf(r.slave, r.tr.Kind, r.tr.Addr)
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
		b.sampleEnergy(metrics.PhaseAddress, r.tr.Addr)
	}
	if r.err {
		r.tr.Done, r.tr.Err = true, true
		r.tr.DataCycle = cycle
		b.outstanding.Retire(r.tr)
		b.stats.Errors++
		if b.power != nil {
			b.power.errorEnergy(r.tr.Kind)
		}
		if b.mx != nil {
			b.sampleEnergy(metrics.PhaseError, r.tr.Addr)
			b.mx.TxRetired(r.tr, b.m.Index(r.tr.Addr), true)
		}
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
	tr := r.tr
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
			v, ok = r.slave.ReadWord(addr, w)
			tr.Data[i] = v
		} else {
			ok = r.slave.WriteWord(addr, tr.Data[i], w)
		}
		delivered++
		if !ok {
			break
		}
	}
	if r.readback != nil {
		for i := range r.readback {
			r.readback[i] = byte(tr.Data[i/4] >> (8 * (i % 4)))
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
		b.sampleEnergy(kind, tr.Addr)
	}
	if !ok && b.power != nil {
		b.power.errorEnergy(tr.Kind)
	}
	tr.Done, tr.Err = true, !ok
	tr.DataCycle = cycle
	if b.mx != nil {
		if !ok {
			b.sampleEnergy(metrics.PhaseError, tr.Addr)
		}
		b.mx.Beats(delivered)
		b.mx.TxRetired(tr, b.m.Index(tr.Addr), !ok)
	}
	b.outstanding.Retire(tr)
	if ok {
		b.stats.Completed++
	} else {
		b.stats.Errors++
	}
}
