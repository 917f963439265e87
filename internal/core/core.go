// Package core is the paper's hierarchical bus-model framework: the
// layer-independent interfaces that masters, slaves and energy probes
// program against, the script master used to drive verification corpora
// into any layer, and the platform builder that assembles a smart-card
// system at a chosen abstraction level.
//
// The hierarchy (paper §3):
//
//	layer 0  (rtlbus)   signal/cycle true   gate-level energy (gatepower)
//	layer 1  (tlm1)     cycle accurate      per-cycle transition energy
//	layer 2  (tlm2)     timed               per-phase analytic energy
//
// All three bus models expose the same master-side Access semantics
// (Initiator), admitted and retired by one Ledger, so a master binds to
// any layer unchanged — the property that makes the hierarchy usable
// for communication refinement.
package core

import (
	"repro/internal/ecbus"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Initiator is the master-side bus interface shared by every layer:
// non-blocking, called on a rising edge to present one attempt of a
// transaction. It answers StateRequest when a bus now holds the
// attempt, StateWait when it was refused (category full) or queued at
// an arbiter (present it again next cycle), and StateOK or StateError
// when it completed on the spot. The paper's master "invokes the bus
// interface every clock cycle until the bus returns error or ok"; here
// a master reads a held attempt's outcome from the stamp the bus's
// Ledger writes on retire, the cycle such a call would have answered,
// and never presents a held or done transaction (Present). The buses
// answer such a call without effect, as a guard.
type Initiator interface {
	Access(tr *ecbus.Transaction) ecbus.BusState
}

// Present presents tr to bus unless a bus already took it, and returns
// its state: the stamped outcome once tr is done, StateRequest while a
// bus holds it (behind an arbiter, from the grant on), and otherwise
// bus's answer to the attempt.
func Present(bus Initiator, tr *ecbus.Transaction) ecbus.BusState {
	switch {
	case tr.Done:
		return tr.Outcome()
	case tr.Accepted:
		return ecbus.StateRequest
	}
	return bus.Access(tr)
}

// Refuser is an Initiator whose refusals are stable: Access refuses a
// request only because its category is full, the refusal has no effect
// but being counted, and it cannot turn into an acceptance before a
// transaction in that category retires. The bus executes the cycle
// after every such retire whatever the hints say, so a refused master
// may sleep until then; Refused books the n refusals it would have made
// on the cycles the kernel skipped, or the one it would have drawn by
// presenting to a category Full still reports full. Retired counts the
// bus's retires, so a master that sees it unchanged knows none of its
// held transactions was stamped done. The exact bus models (rtlbus,
// tlm1, tlm2) are Refusers, through their core.Ledger. An arbitrated
// port is not: its refusal queues the request, and the grant arrives
// without any completion.
//
// A wrapper that hands every refusal to the bus it wraps unchanged, and
// adds no effect of its own to it, exposes that bus through
// Unwrap() Initiator, so a master behind the wrapper finds the Refuser.
type Refuser interface {
	Initiator
	Refused(n uint64)
	Retired() uint64
	Full(c ecbus.Category) bool
}

// refuserOf returns the Refuser that answers bus's refusals, looking
// through pass-through wrappers, or nil.
func refuserOf(bus Initiator) Refuser {
	for {
		if r, ok := bus.(Refuser); ok {
			return r
		}
		w, ok := bus.(interface{ Unwrap() Initiator })
		if !ok {
			return nil
		}
		bus = w.Unwrap()
	}
}

// EnergyMeter is the power interface common to the layer-1 and layer-2
// models: "a method which returns the dissipated energy since the last
// method call" plus the running total.
type EnergyMeter interface {
	// EnergySince returns the energy in joules dissipated since the
	// previous EnergySince call (or since reset).
	EnergySince() float64
	// TotalEnergy returns the energy in joules dissipated since reset.
	TotalEnergy() float64
}

// CycleEnergyMeter is the layer-1 power interface: additionally to
// EnergyMeter it returns "the energy dissipated during the last clock
// cycle", enabling cycle-accurate energy profiling.
type CycleEnergyMeter interface {
	EnergyMeter
	EnergyLastCycle() float64
}

// Item is one scripted bus request: the transaction and the earliest
// cycle the master may present it.
type Item struct {
	Tr        *ecbus.Transaction
	NotBefore uint64
}

// RetryPolicy is a master's reaction to bus errors. The zero value
// aborts on the first error (no retries), the historical behaviour.
type RetryPolicy struct {
	// MaxRetries is the number of times one transaction may be re-issued
	// after completing with a bus error before the master gives up and
	// reports the error.
	MaxRetries int
	// Backoff is the number of idle cycles inserted before an errored
	// transaction is re-presented (0 = re-issue the next cycle).
	Backoff uint64
}

// Reissue applies the policy to tr, which completed with a bus error at
// cycle: with budget left it resets tr and returns cycle+1+Backoff, the
// cycle tr may be re-presented; otherwise the error is final (false).
func (p RetryPolicy) Reissue(tr *ecbus.Transaction, cycle uint64) (uint64, bool) {
	if int(tr.Retries) >= p.MaxRetries {
		return 0, false
	}
	tr.ResetForRetry()
	return cycle + 1 + p.Backoff, true
}

// ScriptMaster replays a list of bus requests into an Initiator,
// keeping transactions pipelined up to MaxInFlight, exactly as the bus
// interface unit of the core would. It registers on the kernel's rising
// edge. It is the bus-functional master used for verification and for
// replaying traced transaction sequences into the transaction-level
// models (paper §4.1).
type ScriptMaster struct {
	bus   Initiator
	items []Item
	next  int

	// inflight holds the items a bus holds, in presentation order, and
	// retryQ the errored ones awaiting re-issue. Both name an item by
	// its index, so the per-cycle bookkeeping writes no pointers.
	inflight []int
	retryQ   []reissue

	// refuser books the refusals of skipped cycles and answers whether
	// a category is full and how many transactions retired (nil: bus
	// refusals are not stable, so the master presents again every cycle
	// and scans its in-flight list for done stamps). refused is the item
	// the last tick saw refused, or -1; seen is the refuser's Retired
	// count at the last in-flight scan.
	refuser Refuser
	refused int
	seen    uint64

	// MaxInFlight limits pipelining; the EC categories independently cap
	// outstanding transactions at 4 each, so 12 means "as pipelined as
	// the protocol allows". 1 serializes completely.
	MaxInFlight int

	// Retry is the bus-error reaction policy. Set it before the first
	// kernel cycle.
	Retry RetryPolicy

	// Metrics, when non-nil, receives the master-side retry count: one
	// Retries(1) per re-issue, so the registry total equals TotalRetries
	// and the sum of Transaction.Retries over final completions.
	Metrics *metrics.Registry

	totalRetries int

	completed []*ecbus.Transaction
	errors    int
}

// reissue is errored item i, queued for re-issue at cycle at or later.
type reissue struct {
	i  int
	at uint64
}

// NewScriptMaster creates a script master over bus and registers it on
// the kernel's rising edge.
func NewScriptMaster(k *sim.Kernel, bus Initiator, items []Item) *ScriptMaster {
	m := &ScriptMaster{
		bus:         bus,
		items:       items,
		MaxInFlight: 3 * ecbus.MaxOutstanding,
		inflight:    make([]int, 0, 3*ecbus.MaxOutstanding),
		completed:   make([]*ecbus.Transaction, 0, len(items)),
		refuser:     refuserOf(bus),
		refused:     -1,
	}
	k.AtHinted(sim.Rising, "script-master", m.tick, m.hint, m.onSkip)
	return m
}

// hint reports the earliest future cycle the master needs to run. Ticks
// where the master can issue a request or harvest a finished
// transaction execute normally. Ticks where it would only find its
// in-flight transactions unstamped are skippable, and so are ticks that
// would only re-present the request a Refuser just refused: that
// refusal stands until a transaction completes, and the bus wakes the
// cycle after. A backed-off retry or a different item falling due still
// wakes the master.
func (m *ScriptMaster) hint(now uint64) uint64 {
	next := sim.NoEvent
	if len(m.retryQ) > 0 && len(m.inflight) < m.MaxInFlight {
		if r := m.retryQ[0]; r.at > now {
			next = r.at
		} else if r.i != m.refused {
			return now // a backed-off transaction is due for re-issue
		}
	}
	if m.next < len(m.items) && len(m.inflight) < m.MaxInFlight {
		if at := m.items[m.next].NotBefore; at > now {
			next = min(next, at)
		} else if m.next != m.refused {
			return now // can issue this cycle
		}
	}
	if m.stamped() {
		return now // completion to harvest
	}
	return next
}

// stamped reports whether an in-flight transaction is done. Behind a
// Refuser it scans only when the bus retired something since the last
// harvest: every done stamp on a held transaction is a retire of that
// bus.
func (m *ScriptMaster) stamped() bool {
	if m.refuser != nil && m.refuser.Retired() == m.seen {
		return false
	}
	for _, i := range m.inflight {
		if m.items[i].Tr.Done {
			return true
		}
	}
	return false
}

// onSkip books the refusals the skipped ticks would have drawn: each
// would have re-presented the refused request to a still-full bus.
func (m *ScriptMaster) onSkip(n uint64) {
	if m.refused >= 0 {
		m.refuser.Refused(n)
	}
}

// Done reports whether every scripted transaction has completed.
func (m *ScriptMaster) Done() bool {
	return m.next == len(m.items) && len(m.inflight) == 0 && len(m.retryQ) == 0
}

// Completed returns the finished transactions in completion order.
func (m *ScriptMaster) Completed() []*ecbus.Transaction { return m.completed }

// Errors returns the number of transactions that finished with an error
// after exhausting the retry policy.
func (m *ScriptMaster) Errors() int { return m.errors }

// TotalRetries returns the number of re-issues across all transactions.
func (m *ScriptMaster) TotalRetries() int { return m.totalRetries }

func (m *ScriptMaster) tick(cycle uint64) {
	m.refused = -1
	m.harvest(cycle)

	// Re-issue backed-off errored transactions first, oldest first, so a
	// retry precedes every scripted item that was submitted after the
	// failing transaction.
	for len(m.retryQ) > 0 && len(m.inflight) < m.MaxInFlight && m.retryQ[0].at <= cycle {
		if !m.present(m.retryQ[0].i, cycle) {
			return
		}
		m.retryQ = m.retryQ[1:]
	}

	// Issue new requests while the script and the bus allow.
	for m.next < len(m.items) && len(m.inflight) < m.MaxInFlight && m.items[m.next].NotBefore <= cycle {
		if !m.present(m.next, cycle) {
			return // preserve program order
		}
		m.next++
	}
}

// harvest finishes the in-flight transactions the bus has stamped done,
// in in-flight order. Behind a Refuser each done stamp is one retire,
// so the move of its Retired count since the last harvest bounds them:
// with no move there is none, and the scan stops at the last one.
func (m *ScriptMaster) harvest(cycle uint64) {
	left := ^uint64(0)
	if m.refuser != nil {
		r := m.refuser.Retired()
		if left = r - m.seen; left == 0 {
			return
		}
		m.seen = r
	}
	keep := m.inflight[:0]
	for j, i := range m.inflight {
		if !m.items[i].Tr.Done {
			keep = append(keep, i)
			continue
		}
		m.finish(i, cycle)
		if left--; left == 0 {
			keep = append(keep, m.inflight[j+1:]...)
			break
		}
	}
	m.inflight = keep
}

// present offers item i to the bus and reports whether the bus took
// it: a held request goes in flight, one completed at once (the
// validation failure path) is finished, and a refusal (bus full) is
// remembered so the master can sleep until a completion if the refusal
// is stable (see hint). A fresh request whose category a Refuser
// reports Full is refused without the call: the bus would refuse it the
// same way, and the refusal is booked as the bus books it.
func (m *ScriptMaster) present(i int, cycle uint64) bool {
	tr := m.items[i].Tr
	if m.refuser != nil && !tr.Done && !tr.Accepted && m.refuser.Full(tr.Category()) {
		m.refuser.Refused(1)
		m.refused = i
		return false
	}
	switch Present(m.bus, tr) {
	case ecbus.StateRequest:
		m.inflight = append(m.inflight, i)
	case ecbus.StateOK, ecbus.StateError:
		m.finish(i, cycle)
	default:
		if m.refuser != nil {
			m.refused = i
		}
		return false
	}
	return true
}

// finish applies the retry policy to completed item i: an errored
// transaction with retry budget left is reset and queued for re-issue
// after the backoff window; otherwise it is final.
func (m *ScriptMaster) finish(i int, cycle uint64) {
	tr := m.items[i].Tr
	if tr.Err {
		if at, ok := m.Retry.Reissue(tr, cycle); ok {
			m.totalRetries++
			m.Metrics.Retries(1)
			m.retryQ = append(m.retryQ, reissue{i, at})
			return
		}
		m.errors++
	}
	m.completed = append(m.completed, tr)
}

// RunScript drives items through bus until completion or maxCycles, and
// returns the master and the number of cycles executed.
func RunScript(k *sim.Kernel, bus Initiator, items []Item, maxCycles uint64) (*ScriptMaster, uint64) {
	m := NewScriptMaster(k, bus, items)
	n, _ := k.RunUntil(maxCycles, m.Done)
	return m, n
}
