package crypto

import (
	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/sim"
)

// Job is one unit of crypto-master work: Blocks consecutive 64-bit
// blocks read from Src, encrypted under the master's key, written to
// Dst. Src and Dst are word-aligned; each block occupies two 32-bit
// words, low word first.
type Job struct {
	Src, Dst uint64
	Blocks   int
}

// crypto-master states.
const (
	cmIdle = iota
	cmReadLo
	cmReadHi
	cmBusy
	cmWriteLo
	cmWriteHi
)

// Master is the crypto coprocessor as a true bus master: instead of
// the CPU spoon-feeding the memory-mapped Coprocessor SFRs, the engine
// fetches its plaintext blocks and writes back its ciphertext itself,
// contending for the interconnect with the CPU and the DMA engine.
// Each block costs two word reads, Rounds*CyclesPerRound engine-busy
// cycles (the same latency the SFR-mapped Coprocessor models), and two
// word writes. It registers on the kernel's rising edge; its embedded
// SingleMaster runs each transaction and counts transactions and
// retries.
type Master struct {
	core.SingleMaster

	key  uint64
	jobs []Job

	ji        int // current job
	blk       int // blocks completed within the current job
	state     int
	lo, hi    uint32
	busyUntil uint64
	result    uint64

	// Stats.
	Errors uint64 // jobs abandoned after exhausting retries
	Blocks uint64 // blocks encrypted and written back
}

// NewMaster creates a crypto bus master over bus (a mux port or a bus
// model directly) and registers it on the kernel's rising edge.
func NewMaster(k *sim.Kernel, bus core.Initiator, key uint64, jobs []Job) *Master {
	m := &Master{SingleMaster: core.NewSingleMaster(bus, core.RetryPolicy{}), key: key, jobs: jobs}
	k.AtHinted(sim.Rising, "crypto-master", m.tick, m.hint, nil)
	return m
}

// Done reports whether every job has been processed.
func (m *Master) Done() bool { return m.ji >= len(m.jobs) && m.state == cmIdle }

// hint keeps the master skippable: no cycle once drained, the engine
// completion cycle while encrypting, the backoff cycle after an error.
func (m *Master) hint(now uint64) uint64 {
	if m.Done() {
		return sim.NoEvent
	}
	if m.state == cmBusy && m.busyUntil > now {
		return m.busyUntil
	}
	return m.Hint(now)
}

// issue prepares a single-word transaction for the current block.
func (m *Master) issue(kind ecbus.Kind, addr uint64, data uint32, next int) {
	if _, err := m.Single(kind, addr, ecbus.W32, data); err != nil {
		m.abandon()
		return
	}
	m.state = next
}

// abandon gives up on the current job after an unrecoverable error.
func (m *Master) abandon() {
	m.Errors++
	m.ji, m.blk = m.ji+1, 0
	m.state = cmIdle
}

// advance moves to the next block (or job) after a write-back.
func (m *Master) advance() {
	m.Blocks++
	m.blk++
	if m.blk >= m.jobs[m.ji].Blocks {
		m.ji, m.blk = m.ji+1, 0
	}
	m.state = cmIdle
}

// start launches the next block's read sequence, skipping empty jobs.
func (m *Master) start() {
	for m.ji < len(m.jobs) && m.blk >= m.jobs[m.ji].Blocks {
		m.ji, m.blk = m.ji+1, 0
	}
	if m.ji >= len(m.jobs) {
		return
	}
	j := m.jobs[m.ji]
	m.issue(ecbus.Read, j.Src+uint64(8*m.blk), 0, cmReadLo)
}

// tick advances the master one cycle.
func (m *Master) tick(cycle uint64) {
	if m.state == cmBusy {
		if cycle < m.busyUntil {
			return
		}
		// Engine done: write the ciphertext back, low word first.
		j := m.jobs[m.ji]
		m.issue(ecbus.Write, j.Dst+uint64(8*m.blk), uint32(m.result), cmWriteLo)
		if m.state != cmWriteLo {
			return
		}
	}
	if m.state == cmIdle {
		if m.ji >= len(m.jobs) {
			return
		}
		m.start()
		if m.state == cmIdle {
			return
		}
	}
	switch m.Step(m.Tr(), cycle) {
	case ecbus.StateWait:
		return
	case ecbus.StateError:
		m.abandon()
		return
	}
	j := m.jobs[m.ji]
	switch m.state {
	case cmReadLo:
		m.lo = m.Tr().Data[0]
		m.issue(ecbus.Read, j.Src+uint64(8*m.blk)+4, 0, cmReadHi)
	case cmReadHi:
		m.hi = m.Tr().Data[0]
		m.result = Encrypt(m.key, uint64(m.hi)<<32|uint64(m.lo))
		m.busyUntil = cycle + Rounds*CyclesPerRound
		m.state = cmBusy
	case cmWriteLo:
		m.issue(ecbus.Write, j.Dst+uint64(8*m.blk)+4, uint32(m.result>>32), cmWriteHi)
	case cmWriteHi:
		m.advance()
	}
}
