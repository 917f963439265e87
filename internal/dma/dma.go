// Package dma provides the direct-memory-access engine of the
// smart-card platform: a true bus master that moves words between the
// APDU buffer and the EEPROM without occupying the CPU — the transfer
// the paper's platform performs on every command dispatch. Off-loading
// it turns the interconnect into a multi-master system, which is why
// the engine only exists behind an arbitration port (arb.Mux); it
// drives any layer's bus through the standard core.Initiator protocol.
package dma

import (
	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Descriptor is one programmed transfer: Words 32-bit words copied
// from Src to Dst, both word-aligned.
type Descriptor struct {
	Src, Dst uint64
	Words    int
}

// engine states.
const (
	stIdle = iota
	stRead
	stWrite
)

// Engine is the DMA master: it walks its descriptor list, alternating
// read and write transactions word by word (bursts of ecbus.BurstLen
// when both addresses are burst-aligned and enough words remain), with
// the same retry-with-backoff error reaction as the CPU-side masters.
// It registers on the kernel's rising edge like every master.
type Engine struct {
	bus   core.Initiator
	descs []Descriptor

	di    int // current descriptor
	off   int // words completed within the current descriptor
	state int
	chunk int // words in the in-flight transaction
	buf   [ecbus.BurstLen]uint32

	tr        ecbus.Transaction
	ids       uint64
	notBefore uint64 // backoff gate after an errored attempt

	// Retry is the bus-error reaction policy. Set it before the first
	// kernel cycle.
	Retry core.RetryPolicy

	// Metrics, when non-nil, receives the engine-side retry count.
	Metrics *metrics.Registry

	// Stats.
	Transactions uint64 // bus transactions issued
	Retries      uint64 // errored attempts re-issued
	Errors       uint64 // descriptors abandoned after exhausting retries
	WordsMoved   uint64 // words successfully written to the destination
}

// New creates a DMA engine over bus (a mux port or a bus model
// directly) and registers it on the kernel's rising edge.
func New(k *sim.Kernel, bus core.Initiator, descs []Descriptor) *Engine {
	e := &Engine{bus: bus, descs: descs}
	k.AtHinted(sim.Rising, "dma", e.tick, e.hint, nil)
	return e
}

// Done reports whether every descriptor has been processed.
func (e *Engine) Done() bool { return e.di >= len(e.descs) && e.state == stIdle }

// hint keeps the engine skippable: it needs no cycle once drained, and
// only its backoff cycle while backing off after an error.
func (e *Engine) hint(now uint64) uint64 {
	if e.Done() {
		return sim.NoEvent
	}
	if e.notBefore > now {
		return e.notBefore
	}
	return now
}

// burstable reports whether the next chunk of the current descriptor
// can go as a burst: ecbus.BurstLen words remaining with both source
// and destination 16-byte aligned.
func (e *Engine) burstable() bool {
	d := e.descs[e.di]
	if d.Words-e.off < ecbus.BurstLen {
		return false
	}
	src := d.Src + uint64(4*e.off)
	dst := d.Dst + uint64(4*e.off)
	const alignment = ecbus.BurstLen * 4
	return src%alignment == 0 && dst%alignment == 0
}

// startRead prepares and presents the read transaction of the next
// chunk. Descriptors with nothing to move are completed on the spot.
func (e *Engine) startRead() {
	for e.di < len(e.descs) && e.off >= e.descs[e.di].Words {
		e.di, e.off = e.di+1, 0
	}
	if e.di >= len(e.descs) {
		return
	}
	d := e.descs[e.di]
	e.ids++
	if e.burstable() {
		e.chunk = ecbus.BurstLen
		if err := e.tr.ResetBurst(e.ids, ecbus.Read, d.Src+uint64(4*e.off)); err != nil {
			e.abandon()
			return
		}
	} else {
		e.chunk = 1
		if err := e.tr.ResetSingle(e.ids, ecbus.Read, d.Src+uint64(4*e.off), ecbus.W32, 0); err != nil {
			e.abandon()
			return
		}
	}
	e.state = stRead
	e.Transactions++
}

// startWrite presents the write transaction carrying the chunk just
// read.
func (e *Engine) startWrite() {
	d := e.descs[e.di]
	e.ids++
	var err error
	if e.chunk == ecbus.BurstLen {
		err = e.tr.ResetBurst(e.ids, ecbus.Write, d.Dst+uint64(4*e.off))
	} else {
		err = e.tr.ResetSingle(e.ids, ecbus.Write, d.Dst+uint64(4*e.off), ecbus.W32, 0)
	}
	if err != nil {
		e.abandon()
		return
	}
	copy(e.tr.Data, e.buf[:e.chunk])
	e.state = stWrite
	e.Transactions++
}

// abandon gives up on the current descriptor after an unrecoverable
// error and moves to the next one.
func (e *Engine) abandon() {
	e.Errors++
	e.di, e.off = e.di+1, 0
	e.state = stIdle
}

// tick advances the engine one cycle: poll the in-flight transaction,
// react to completion, and start the next chunk when idle.
func (e *Engine) tick(cycle uint64) {
	if cycle < e.notBefore {
		return
	}
	if e.state == stIdle {
		if e.di >= len(e.descs) {
			return
		}
		e.startRead()
		if e.state == stIdle {
			return
		}
	}
	st := e.bus.Access(&e.tr)
	if !st.Done() {
		return
	}
	if st == ecbus.StateError {
		at, ok := e.Retry.Reissue(&e.tr, cycle)
		if !ok {
			e.abandon()
			return
		}
		e.Retries++
		e.Metrics.Retries(1)
		e.notBefore = at
		return
	}
	switch e.state {
	case stRead:
		copy(e.buf[:e.chunk], e.tr.Data)
		e.startWrite()
	case stWrite:
		e.WordsMoved += uint64(e.chunk)
		e.off += e.chunk
		e.state = stIdle
		e.startRead()
	}
}
