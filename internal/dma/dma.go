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
// the same retry-with-backoff error reaction as the CPU-side masters,
// which its embedded SingleMaster runs. It registers on the kernel's
// rising edge like every master.
type Engine struct {
	core.SingleMaster

	descs []Descriptor

	di    int // current descriptor
	off   int // words completed within the current descriptor
	state int
	chunk int // words in the in-flight transaction
	buf   [ecbus.BurstLen]uint32

	// Stats.
	Errors     uint64 // descriptors abandoned after exhausting retries
	WordsMoved uint64 // words successfully written to the destination
}

// New creates a DMA engine over bus (a mux port or a bus model
// directly) and registers it on the kernel's rising edge.
func New(k *sim.Kernel, bus core.Initiator, descs []Descriptor) *Engine {
	e := &Engine{SingleMaster: core.NewSingleMaster(bus, core.RetryPolicy{}), descs: descs}
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
	return e.Hint(now)
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

// startRead prepares the read transaction of the next chunk.
// Descriptors with nothing to move are completed on the spot.
func (e *Engine) startRead() {
	for e.di < len(e.descs) && e.off >= e.descs[e.di].Words {
		e.di, e.off = e.di+1, 0
	}
	if e.di >= len(e.descs) {
		return
	}
	e.chunk = 1
	if e.burstable() {
		e.chunk = ecbus.BurstLen
	}
	if _, err := e.reset(ecbus.Read, e.descs[e.di].Src); err != nil {
		e.abandon()
		return
	}
	e.state = stRead
}

// startWrite prepares the write transaction carrying the chunk just
// read.
func (e *Engine) startWrite() {
	tr, err := e.reset(ecbus.Write, e.descs[e.di].Dst)
	if err != nil {
		e.abandon()
		return
	}
	copy(tr.Data, e.buf[:e.chunk])
	e.state = stWrite
}

// reset prepares the pooled transaction for the current chunk at
// base's offset: a burst for a full chunk, a single word otherwise.
func (e *Engine) reset(kind ecbus.Kind, base uint64) (*ecbus.Transaction, error) {
	addr := base + uint64(4*e.off)
	if e.chunk == ecbus.BurstLen {
		return e.Burst(kind, addr)
	}
	return e.Single(kind, addr, ecbus.W32, 0)
}

// abandon gives up on the current descriptor after an unrecoverable
// error and moves to the next one.
func (e *Engine) abandon() {
	e.Errors++
	e.di, e.off = e.di+1, 0
	e.state = stIdle
}

// tick advances the engine one cycle: step the in-flight transaction,
// react to completion, and start the next chunk when idle.
func (e *Engine) tick(cycle uint64) {
	if e.state == stIdle {
		if e.di >= len(e.descs) {
			return
		}
		e.startRead()
		if e.state == stIdle {
			return
		}
	}
	switch e.Step(e.Tr(), cycle) {
	case ecbus.StateWait:
		return
	case ecbus.StateError:
		e.abandon()
		return
	}
	switch e.state {
	case stRead:
		copy(e.buf[:e.chunk], e.Tr().Data)
		e.startWrite()
	case stWrite:
		e.WordsMoved += uint64(e.chunk)
		e.off += e.chunk
		e.state = stIdle
		e.startRead()
	}
}
