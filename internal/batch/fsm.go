package batch

import (
	"repro/internal/core"
	"repro/internal/ecbus"
)

// This file is the per-lane port of the serial models: the script
// master (core.ScriptMaster.tick) and the bus FSM shared by the
// layer-0 and layer-1 models. The two serial models implement the same
// protocol rules — queue-based in tlm1, FSM-based in rtlbus — and
// differ only in which wires they drive (layer 0 additionally drives
// the decoder select). The lane FSM keeps the exact decision order of
// the serial code so per-transaction timestamps, data payloads, retry
// sequences and wire values are reproduced bit for bit.
//
// Unlike the serial models, the per-cycle path is polling-free: bus
// units notify the master through a done counter instead of the master
// scanning its in-flight set every cycle, slave control is sampled once
// per transaction from the map's config snapshot, and wires that the
// serial models re-drive to the same value every cycle (address-phase
// values, a pending write beat's data) are driven once — a re-drive of
// an unchanged value is invisible to the dirty-tracking pricing pass,
// so the wire trajectories are identical.

// laneEntry tracks one transaction's bus-side state, the slave control
// sample of the serial models' address-phase start. The slave itself is
// referenced by decoder index (sel) into the lane's slave table, which
// keeps the entry pointer-light and small for the queue copies.
type laneEntry struct {
	tr   *ecbus.Transaction
	seq  uint32 // lane-local issue ordinal, the serial in-flight order
	sel  int16  // decoder index of the sampled slave; -1 on decode miss
	err  bool   // decode miss / rights violation / range crossing
	pend bool   // beat not started: countdown (and write data drive) begin at queue head
	aw   int32  // address wait states (incl. dynamic extra)
	dw   int32  // data wait states per beat

	beat  int32
	ready uint64 // absolute cycle the current beat's wait states elapse
}

// finRec is one completed transaction awaiting the master's harvest.
type finRec struct {
	tr  *ecbus.Transaction
	seq uint32
}

// lane is one run's complete simulation state: its own address map
// (lane-local fault ordinals), master bookkeeping and bus queues. Wire
// values live in the engine's shared lattice, indexed by lane.
type lane struct {
	runIdx int
	cyc    uint64 // current cycle; starts at all-ones, pre-incremented per tick
	m      *ecbus.Map

	// Master (core.ScriptMaster port). In-flight transactions are a
	// count plus a completion ring: the serial master's in-flight SLICE
	// is only observable through the order it hands completed
	// transactions to the retry policy, and issue ordinals reproduce
	// that order without pointer-chasing the pending set every harvest.
	items    []core.Item
	next     int
	inflight int    // issued, not yet harvested
	issueSeq uint32 // next lane-local issue ordinal
	finished [4]finRec
	finCnt   int
	stalled  bool // bus answered Wait; re-asking is a no-op until a completion
	retryQ   []core.Item
	retries  int
	errors   int

	// Bus: the serial models' ledger (no metrics registry) and unit
	// queues.
	tx          core.Ledger
	addrQ       ecbus.Ring[laneEntry]
	readQ       ecbus.Ring[laneEntry]
	writeQ      ecbus.Ring[laneEntry]
	addrStarted bool
	addrDone    uint64 // absolute cycle the running address phase completes

	// wakeTick is the engine tick at which the lane resumes execution
	// after a sleep (Engine.sleep): its wait-state cycles were already
	// accounted when it fell asleep, so until then the lane costs the
	// tick loop nothing at all. Set from Engine.nextWake at the end of
	// every executed lane cycle.
	wakeTick uint64
}

// done mirrors ScriptMaster.Done: every scripted transaction completed
// AND harvested — the serial master keeps a completed transaction in
// its in-flight set (and so runs one more cycle) until the tick after
// the bus finishes it.
func (ln *lane) done() bool {
	return ln.next == len(ln.items) && ln.inflight == 0 && ln.finCnt == 0 && len(ln.retryQ) == 0
}

// masterTick replays ScriptMaster.tick for one lane: harvest completed
// transactions, re-issue backed-off retries oldest first, then issue
// scripted items in program order. A bus-full answer aborts the whole
// tick, exactly like the serial master.
func (e *Engine) masterTick(ln *lane, li int) {
	cycle := ln.cyc
	if ln.finCnt > 0 {
		// The serial master harvests the in-flight transactions stamped
		// done each cycle, in in-flight order, so only the relative
		// order of the completed transactions is observable. The bus units record at most three completions per
		// cycle (address-error, read beat, write beat); sorting those by
		// issue ordinal restores the serial finish order.
		if ln.finCnt > 1 {
			for i := 1; i < ln.finCnt; i++ {
				for j := i; j > 0 && ln.finished[j].seq < ln.finished[j-1].seq; j-- {
					ln.finished[j], ln.finished[j-1] = ln.finished[j-1], ln.finished[j]
				}
			}
		}
		for i := 0; i < ln.finCnt; i++ {
			tr := ln.finished[i].tr
			e.masterFinish(ln, tr, tr.Outcome(), cycle)
			ln.finished[i] = finRec{}
		}
		ln.finCnt = 0
	}

	if ln.stalled {
		// The last issue attempt got StateWait. Given an unchanged head
		// item, Wait depends only on the outstanding counters, which
		// change only when a bus unit completes a transaction — and that
		// clears the flag. The one time-dependent event that can change
		// the head item is a backed-off retry coming due.
		if len(ln.retryQ) == 0 || ln.retryQ[0].NotBefore > cycle {
			return
		}
		ln.stalled = false
	}

	for len(ln.retryQ) > 0 && ln.inflight < e.maxInFlight {
		it := ln.retryQ[0]
		if it.NotBefore > cycle {
			break
		}
		switch st := ln.access(it.Tr); st {
		case ecbus.StateRequest:
			ln.inflight++
			ln.retryQ = ln.retryQ[1:]
		case ecbus.StateOK, ecbus.StateError:
			ln.retryQ = ln.retryQ[1:]
			e.masterFinish(ln, it.Tr, st, cycle)
		default:
			ln.stalled = true
			return // bus full: retry next cycle
		}
	}

	for ln.next < len(ln.items) && ln.inflight < e.maxInFlight {
		it := ln.items[ln.next]
		if it.NotBefore > cycle {
			break
		}
		switch st := ln.access(it.Tr); st {
		case ecbus.StateRequest:
			ln.inflight++
			ln.next++
		case ecbus.StateOK, ecbus.StateError:
			// Completed immediately (validation failure path).
			e.masterFinish(ln, it.Tr, st, cycle)
			ln.next++
		default:
			ln.stalled = true
			return // bus full: retry next cycle, preserve program order
		}
	}
}

// masterFinish applies the retry policy, mirroring ScriptMaster.finish.
func (e *Engine) masterFinish(ln *lane, tr *ecbus.Transaction, st ecbus.BusState, cycle uint64) {
	if st != ecbus.StateError {
		return
	}
	if at, ok := e.cfg.Retry.Reissue(tr, cycle); ok {
		ln.retries++
		ln.retryQ = append(ln.retryQ, core.Item{Tr: tr, NotBefore: at})
		return
	}
	ln.errors++
}

// access is the lane's bus Access, the serial buses' own: the ledger
// admits tr and an accepted request joins the address queue. The
// serial buses stamp b.cycle+1: the bus counter lags one falling edge
// behind the master's rising edge, so the accepted cycle is exactly the
// lane's current cycle.
func (ln *lane) access(tr *ecbus.Transaction) ecbus.BusState {
	st := ln.tx.Admit(tr, ln.cyc)
	if st == ecbus.StateRequest {
		ln.addrQ.Push(laneEntry{tr: tr, seq: ln.issueSeq, sel: -1})
		ln.issueSeq++
	}
	return st
}

// sampleSlave samples the slave control interface at address-phase
// start: one ecbus.Map.Lookup gives the slave index and access
// legality, then the wait states. Data wait states come from the
// static slave configuration, so sampling them here (as tlm1 does) is
// identical to layer 0's sampling at data-phase start.
func (e *Engine) sampleSlave(ln *lane, en *laneEntry) {
	tr := en.tr
	idx, ok := ln.m.Lookup(tr.Kind, tr.Addr, tr.Words()*4)
	en.sel = int16(idx)
	if !ok {
		en.err = true
		en.aw = 0 // errors terminate after a 1-cycle address phase
		return
	}
	t := ln.m.Target(idx)
	en.aw = int32(t.Config.AddrWait + t.ExtraWait(tr.Kind, tr.Addr))
	if tr.Kind.IsRead() {
		en.dw = int32(t.Config.ReadWait)
	} else {
		en.dw = int32(t.Config.WriteWait)
	}
}

// addrUnit advances one lane's serialized address phase.
func (e *Engine) addrUnit(ln *lane, li int) {
	if ln.addrQ.Empty() {
		return
	}
	en := ln.addrQ.Front()
	if en.tr.IssueCycle > ln.cyc {
		return // accepted later this cycle by the master
	}
	if !ln.addrStarted {
		ln.addrStarted = true
		e.sampleSlave(ln, en)
		e.driveAddr(li, en)
		ln.addrDone = ln.cyc + uint64(en.aw)
	} else {
		// The serial bus re-drives the full (unchanged) address group
		// every phase cycle; only the strobe and the burst-last wire —
		// which a concurrent data beat may have raised — need the
		// per-cycle treatment. (A sleeping lane's strobes are held by the
		// masked strobe clear instead, and it never sleeps with the
		// burst-last wire raised.)
		e.setPacked(ecbus.SigAValid, li, true)
		e.setPacked(ecbus.SigBLast, li, false)
	}
	if ln.cyc < ln.addrDone {
		return
	}
	// Phase completes this cycle.
	e.setPacked(ecbus.SigARdy, li, true)
	en.tr.AddrCycle = ln.cyc
	ent := *en // copy out before the slot is recycled
	ln.addrQ.Pop()
	ln.addrStarted = false
	switch {
	case ent.err:
		e.completeError(ln, li, &ent)
	case ent.tr.Kind.IsRead():
		ent.pend = true // beat countdown starts when the entry heads the queue
		ln.readQ.Push(ent)
	default:
		ent.pend = true // write data drives at beat start
		ln.writeQ.Push(ent)
	}
}

// driveAddr drives the address-phase wires once, at phase start. The
// decoder select is a layer-0 (controller-internal) wire; the layer-1
// model prices interface signals only.
func (e *Engine) driveAddr(li int, en *laneEntry) {
	tr := en.tr
	e.setPacked(ecbus.SigAValid, li, true)
	e.setVal(ecbus.SigA, li, tr.Addr)
	e.setPacked(ecbus.SigInstr, li, tr.Kind == ecbus.Fetch)
	e.setPacked(ecbus.SigWrite, li, tr.Kind == ecbus.Write)
	e.setPacked(ecbus.SigBurst, li, tr.Burst)
	e.setPacked(ecbus.SigBFirst, li, tr.Burst)
	e.setPacked(ecbus.SigBLast, li, false)
	be := uint8(0b1111)
	if !tr.Burst {
		be, _ = ecbus.ByteEnables(tr.Addr, tr.Width)
	}
	e.setVal(ecbus.SigBE, li, uint64(be))
	if e.cfg.Layer == 0 {
		idx := en.sel
		if idx < 0 {
			idx = 7 // decoder "no select" pattern
		}
		e.setVal(ecbus.SigSel, li, uint64(idx))
	}
}

// completeError finishes a transaction with a bus error at the end of
// its address phase, pulsing the error wire of its direction.
func (e *Engine) completeError(ln *lane, li int, en *laneEntry) {
	if en.tr.Kind.IsRead() {
		e.setPacked(ecbus.SigRBErr, li, true)
	} else {
		e.setPacked(ecbus.SigWBErr, li, true)
	}
	ln.tx.Retire(en.tr, ln.cyc, true, int(en.sel))
	ln.finished[ln.finCnt] = finRec{tr: en.tr, seq: en.seq}
	ln.finCnt++
	ln.inflight--
	ln.stalled = false
}

// readUnit serves one read data beat per cycle for one lane.
func (e *Engine) readUnit(ln *lane, li int) {
	if ln.readQ.Empty() {
		return
	}
	en := ln.readQ.Front()
	if en.pend {
		// The beat's wait states count from the cycle the entry heads the
		// queue — the data bus serves one transaction at a time.
		en.pend = false
		en.ready = ln.cyc + uint64(en.dw)
	}
	if ln.cyc < en.ready {
		return
	}
	i := en.beat
	addr := en.tr.Addr + uint64(4*i)
	w := en.tr.Width
	if en.tr.Burst {
		w = ecbus.W32
	}
	// The checked range lies within one slave, so the sampled slave is
	// the per-beat decode result of the layer-0 model.
	data, ok := ln.m.Target(int(en.sel)).Slave.ReadWord(addr, w)
	e.setVal(ecbus.SigRData, li, uint64(data))
	en.tr.Data[i] = data
	en.beat++
	if !ok {
		// Errored beat: the slave still drives the (possibly corrupted)
		// word, the error strobe replaces read-valid, and the burst
		// terminates without a last-beat marker.
		e.setPacked(ecbus.SigRBErr, li, true)
		e.finishData(ln, &ln.readQ, en, true)
		return
	}
	e.setPacked(ecbus.SigRdVal, li, true)
	e.setPacked(ecbus.SigBLast, li, en.tr.Burst && int(i) == en.tr.Words()-1)
	if int(en.beat) == en.tr.Words() {
		e.finishData(ln, &ln.readQ, en, false)
		return
	}
	en.ready = ln.cyc + 1 + uint64(en.dw)
}

// writeUnit serves one write data beat per cycle for one lane. The
// master drives the write data bus while the beat pends; the value is
// constant across the beat's wait cycles, so one drive at beat start
// yields the serial wire trajectory.
func (e *Engine) writeUnit(ln *lane, li int) {
	if ln.writeQ.Empty() {
		return
	}
	en := ln.writeQ.Front()
	i := en.beat
	if en.pend {
		e.setVal(ecbus.SigWData, li, uint64(en.tr.Data[i]))
		en.pend = false
		en.ready = ln.cyc + uint64(en.dw)
	}
	if ln.cyc < en.ready {
		return
	}
	addr := en.tr.Addr + uint64(4*i)
	w := en.tr.Width
	if en.tr.Burst {
		w = ecbus.W32
	}
	ok := ln.m.Target(int(en.sel)).Slave.WriteWord(addr, en.tr.Data[i], w)
	en.beat++
	if !ok {
		// Mirror of the read-side rule: the write-error strobe replaces
		// write-accept and no last-beat marker is driven.
		e.setPacked(ecbus.SigWBErr, li, true)
		e.finishData(ln, &ln.writeQ, en, true)
		return
	}
	e.setPacked(ecbus.SigWDRdy, li, true)
	e.setPacked(ecbus.SigBLast, li, en.tr.Burst && int(i) == en.tr.Words()-1)
	if int(en.beat) == en.tr.Words() {
		e.finishData(ln, &ln.writeQ, en, false)
		return
	}
	en.pend = true // next beat's data drives next cycle
}

// nextWake computes the next cycle at which anything observable can
// happen on the lane, evaluated at the end of an executed lane cycle.
// Until that cycle the lane's wires are frozen (the masked strobe clear
// holds them) and every unit/master step would be a pure countdown, so
// the tick loop may advance the lane's cycle counter and skip the rest
// — the serial models burn a full kernel cycle on exactly these wait
// states. A result of cyc+1 means "run normally next cycle".
//
// The events that bound the wake cycle:
//   - completed transactions await the master's harvest next cycle;
//   - a running address phase with the burst-last wire high must re-drive
//     it low next cycle (a concurrent data beat raised it);
//   - a pending write beat drives the data bus at beat start;
//   - unit deadlines: address-phase completion, data-beat delivery;
//   - the master: a backed-off retry coming due, or the next scripted
//     item's not-before cycle when issue capacity is available. A master
//     blocked on capacity needs no wake of its own — capacity frees only
//     when a unit completes a transaction, which is a unit deadline.
//
// Strobes left high are deliberately NOT wake events: Engine.sleep flags
// them and the next tick's strobe clear releases them (the serial
// falling edge, priced as usual) while the lane sleeps on.
func (e *Engine) nextWake(ln *lane, li int) uint64 {
	c1 := ln.cyc + 1
	if ln.finCnt > 0 {
		return c1
	}
	if ln.next == len(ln.items) && ln.inflight == 0 && len(ln.retryQ) == 0 {
		return c1 // run complete: harvested next cycle
	}
	w := ^uint64(0)
	if !ln.addrQ.Empty() {
		if !ln.addrStarted {
			return c1 // phase starts next cycle
		}
		if e.packed[ecbus.SigBLast]&(uint64(1)<<uint(li)) != 0 {
			return c1 // a concurrent data beat raised it; re-drive low
		}
		w = ln.addrDone
	}
	if !ln.readQ.Empty() {
		en := ln.readQ.Front()
		if en.pend {
			return c1
		}
		if en.ready < w {
			w = en.ready
		}
	}
	if !ln.writeQ.Empty() {
		en := ln.writeQ.Front()
		if en.pend {
			return c1
		}
		if en.ready < w {
			w = en.ready
		}
	}
	// A stalled master's re-ask is a side-effect-free StateWait until
	// either a unit completion — always a unit deadline already in w —
	// or a backed-off retry coming due clears the flag, so the retry
	// due-cycle is a wake event regardless of the stall state. Scripted
	// items only matter to an unstalled master with free capacity.
	if len(ln.retryQ) > 0 {
		if r := ln.retryQ[0].NotBefore; r < w {
			w = r
		}
	}
	if !ln.stalled && ln.inflight < e.maxInFlight && ln.next < len(ln.items) {
		if r := ln.items[ln.next].NotBefore; r < w {
			w = r
		}
	}
	if w < c1 {
		return c1
	}
	return w
}

// finishData retires the head of a data queue.
func (e *Engine) finishData(ln *lane, q *ecbus.Ring[laneEntry], en *laneEntry, err bool) {
	tr := en.tr
	ln.tx.Retire(tr, ln.cyc, err, int(en.sel))
	ln.finished[ln.finCnt] = finRec{tr: tr, seq: en.seq}
	ln.finCnt++
	q.Pop()
	if q == &ln.readQ && !q.Empty() {
		if nx := q.Front(); nx.pend {
			// The successor's countdown starts next cycle, when the read
			// unit would first see it at the head — and a read beat's
			// start drives no wires, so the consume folds in here and the
			// lane may sleep straight through to the delivery cycle.
			nx.pend = false
			nx.ready = ln.cyc + 1 + uint64(nx.dw)
		}
	}
	ln.inflight--
	ln.stalled = false
}
