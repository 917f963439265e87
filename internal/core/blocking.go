package core

import (
	"repro/internal/ecbus"
	"repro/internal/sim"
)

// StepLimit bounds the kernel steps a BlockingMaster waits for one
// transaction. The longest legal wait of the modelled slaves is the
// EEPROM's 32-cycle programming window; reaching it means a wedged bus.
const StepLimit = 100_000

// BlockingMaster is the bus call of an untimed model refined onto a
// clocked bus (paper §4.3, Fig. 7b): it "invokes the bus interface every
// clock cycle until the bus returns error or ok", stepping the kernel
// between polls and re-presenting errored transactions under its
// RetryPolicy. Each call runs to completion, so its one pooled
// single-word transaction is never held by the bus across calls.
type BlockingMaster struct {
	k     *sim.Kernel
	bus   Initiator
	retry RetryPolicy
	ids   uint64
	tr    ecbus.Transaction

	Transactions uint64 // transactions run
	Retries      uint64 // re-issues after bus errors
}

// NewBlockingMaster creates a blocking master over bus.
func NewBlockingMaster(k *sim.Kernel, bus Initiator, retry RetryPolicy) *BlockingMaster {
	return &BlockingMaster{k: k, bus: bus, retry: retry}
}

// NextID returns the ID of the master's next transaction.
func (m *BlockingMaster) NextID() uint64 {
	m.ids++
	return m.ids
}

// Single resets the pooled transaction as the next single-word access.
// A transaction that fails validation (non-nil error) must not be run.
func (m *BlockingMaster) Single(kind ecbus.Kind, addr uint64, w ecbus.Width, data uint32) (*ecbus.Transaction, error) {
	return &m.tr, m.tr.ResetSingle(m.NextID(), kind, addr, w, data)
}

// Run presents tr once per cycle until it completes and returns
// StateOK, StateError once the retry policy gives up (tr keeps its
// address and retry count), or StateWait after StepLimit polls.
func (m *BlockingMaster) Run(tr *ecbus.Transaction) ecbus.BusState {
	m.Transactions++
	for i := 0; i < StepLimit; i++ {
		switch m.bus.Access(tr) {
		case ecbus.StateOK:
			return ecbus.StateOK
		case ecbus.StateError:
			now := m.k.Cycle()
			at, ok := m.retry.Reissue(tr, now)
			if !ok {
				return ecbus.StateError
			}
			m.Retries++
			for c := now + 1; c < at; c++ { // back off until the cycle before at
				m.k.Step()
			}
		}
		m.k.Step()
	}
	return ecbus.StateWait
}
