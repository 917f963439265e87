package core

import (
	"repro/internal/ecbus"
	"repro/internal/sim"
)

// StepLimit bounds the kernel steps a BlockingMaster waits for one
// transaction. The longest legal wait of the modelled slaves is the
// EEPROM's 32-cycle programming window; reaching it means a wedged bus.
const StepLimit = 100_000

// SingleMaster is a master with one transaction on the bus at a time:
// the blocking master of the untimed models, the crypto master and the
// DMA engine. It pools one transaction and numbers its uses, and it
// carries the bus-error reaction: an errored attempt is reset under
// Retry and re-presented after the backoff window.
type SingleMaster struct {
	bus       Initiator
	tr        ecbus.Transaction
	ids       uint64
	notBefore uint64 // backoff gate after an errored attempt

	// Retry is the bus-error reaction policy. Set it before the first
	// kernel cycle.
	Retry RetryPolicy

	Transactions uint64 // pooled transactions issued
	Retries      uint64 // errored attempts re-issued
}

// NewSingleMaster creates a single-transaction master over bus.
func NewSingleMaster(bus Initiator, retry RetryPolicy) SingleMaster {
	return SingleMaster{bus: bus, Retry: retry}
}

// Single resets the pooled transaction as the next single-word access
// and counts it. A transaction that fails validation (non-nil error)
// is not counted and must not be stepped.
func (m *SingleMaster) Single(kind ecbus.Kind, addr uint64, w ecbus.Width, data uint32) (*ecbus.Transaction, error) {
	m.ids++
	return m.counted(m.tr.ResetSingle(m.ids, kind, addr, w, data))
}

// Burst resets the pooled transaction as the next burst under the
// contract of Single; a write's caller fills its Data before stepping.
func (m *SingleMaster) Burst(kind ecbus.Kind, addr uint64) (*ecbus.Transaction, error) {
	m.ids++
	return m.counted(m.tr.ResetBurst(m.ids, kind, addr))
}

func (m *SingleMaster) counted(err error) (*ecbus.Transaction, error) {
	if err == nil {
		m.Transactions++
	}
	return &m.tr, err
}

// Tr returns the pooled transaction, as Single or Burst last reset it.
func (m *SingleMaster) Tr() *ecbus.Transaction { return &m.tr }

// Hint is the earliest cycle from now the master needs for its
// transaction: the end of a retry backoff, or now.
func (m *SingleMaster) Hint(now uint64) uint64 { return max(m.notBefore, now) }

// Step advances tr on cycle: it presents tr until a bus holds it, then
// reads the stamp. It answers StateOK once tr finished OK, StateError
// once tr finished with an error the retry policy gives up on (tr keeps
// its address and retry count), and StateWait otherwise. An error with
// budget left resets tr, which is re-presented Backoff+1 cycles later.
func (m *SingleMaster) Step(tr *ecbus.Transaction, cycle uint64) ecbus.BusState {
	if cycle < m.notBefore {
		return ecbus.StateWait
	}
	switch Present(m.bus, tr) {
	case ecbus.StateOK:
		return ecbus.StateOK
	case ecbus.StateError:
		at, ok := m.Retry.Reissue(tr, cycle)
		if !ok {
			return ecbus.StateError
		}
		m.Retries++
		m.notBefore = at
	}
	return ecbus.StateWait
}

// BlockingMaster is the bus call of an untimed model refined onto a
// clocked bus (paper §4.3, Fig. 7b): each Run steps the kernel until
// its transaction completes, so the pooled transaction is never held
// by the bus across calls.
type BlockingMaster struct {
	SingleMaster
	k *sim.Kernel
}

// NewBlockingMaster creates a blocking master over bus.
func NewBlockingMaster(k *sim.Kernel, bus Initiator, retry RetryPolicy) *BlockingMaster {
	return &BlockingMaster{SingleMaster: NewSingleMaster(bus, retry), k: k}
}

// Run steps tr and the kernel in turn until tr completes, and returns
// StateOK, StateError once the retry policy gives up, or StateWait
// after StepLimit kernel steps.
func (m *BlockingMaster) Run(tr *ecbus.Transaction) ecbus.BusState {
	for i := 0; i < StepLimit; i++ {
		if st := m.Step(tr, m.k.Cycle()); st.Done() {
			return st
		}
		m.k.Step()
	}
	return ecbus.StateWait
}
