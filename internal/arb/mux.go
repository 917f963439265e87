package arb

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Mux is the multi-master front of a bus model: n master-side ports
// share one downstream core.Initiator under an arbitration policy.
//
// The mux registers a falling-edge process that must run *before* the
// bus process of the fronted layer, so a granted transaction is
// presented to the bus in the same falling tick and begins its address
// phase exactly when a directly-connected master's rising-edge request
// would — an uncontended master observes identical Addr/Data cycle
// numbers and identical bus energy through the mux. Construction order
// enforces this: create the Mux first, then the bus, then Bind them.
//
// Arbitration is one grant per cycle (the EC bus starts at most one
// address phase per falling edge anyway). A grant is only committed
// when the bus accepts the transaction; a cycle where the downstream
// category queue is full grants nobody and does not rotate round-robin
// priority away from the stalled winner.
type Mux struct {
	a   *Arbiter
	bus core.Initiator
	n   int

	// pending holds each port's presented-but-ungranted transactions in
	// presentation order. A granted transaction leaves the mux: the bus
	// holds it, and its master reads the outcome from the stamp.
	pending [][]*ecbus.Transaction

	reqPrev, gntPrev uint32
	edges            []uint64 // per-master request+grant wire transitions
	grants           []uint64 // per-master committed grants
	grantWaits       uint64   // grant attempts refused by the bus (queue full)
	contentions      uint64   // executed ticks with >1 requester
}

// NewMux creates the arbitrating front for n masters and registers its
// falling-edge process on the kernel. Call it BEFORE constructing the
// bus model it will front, then Bind the bus; registration order is
// execution order, and the mux must arbitrate ahead of the bus's
// protocol state machine in every falling tick.
func NewMux(k *sim.Kernel, policy Policy, n int) *Mux {
	m := &Mux{
		a:       New(policy, n),
		n:       n,
		pending: make([][]*ecbus.Transaction, n),
		edges:   make([]uint64, n),
		grants:  make([]uint64, n),
	}
	k.AtHinted(sim.Falling, "arb-mux", m.tick, m.hint, nil)
	return m
}

// Bind connects the downstream bus. It must be called before the first
// kernel cycle.
func (m *Mux) Bind(bus core.Initiator) *Mux {
	m.bus = bus
	return m
}

// Port returns master port i. Each master holds exactly one port;
// ports are not safe for use by two concurrent masters (the whole
// simulation is single-threaded).
func (m *Mux) Port(i int) *Port {
	if i < 0 || i >= m.n {
		panic(fmt.Sprintf("arb: port %d out of range [0,%d)", i, m.n))
	}
	return &Port{m: m, i: i}
}

// hint keeps the mux skippable: it needs a cycle only while a request
// is pending or the request/grant wires still carry a level to decay.
func (m *Mux) hint(now uint64) uint64 {
	if m.reqPrev != 0 || m.gntPrev != 0 {
		return now
	}
	for i := range m.pending {
		if len(m.pending[i]) > 0 {
			return now
		}
	}
	return sim.NoEvent
}

// tick is the falling-edge arbitration step: sample requests, pick one
// winner, present its head transaction to the bus, and integrate the
// request/grant wire activity.
func (m *Mux) tick(uint64) {
	var req uint32
	for i := 0; i < m.n; i++ {
		if len(m.pending[i]) > 0 {
			req |= 1 << uint(i)
		}
	}
	var gnt uint32
	if req != 0 {
		if bits.OnesCount32(req) > 1 {
			m.contentions++
		}
		w := m.a.Pick(req)
		tr := m.pending[w][0]
		switch st := m.bus.Access(tr); st {
		case ecbus.StateRequest, ecbus.StateOK, ecbus.StateError:
			// Accepted (or completed on the spot: zero-time counting bus,
			// or a validation failure). The bus holds the transaction
			// now; its master reads the stamp.
			m.pop(w)
			m.a.Commit(w)
			gnt = 1 << uint(w)
			m.grants[w]++
		default:
			// StateWait: the downstream queue for this category is full.
			// No grant this cycle; the winner keeps its priority claim.
			m.grantWaits++
		}
	}
	// Request/grant wire edges, integrated per master in port order —
	// the order TotalEnergy sums, so attribution telescopes bit-exactly.
	dr, dg := req^m.reqPrev, gnt^m.gntPrev
	if dr|dg != 0 {
		for i := 0; i < m.n; i++ {
			m.edges[i] += uint64(dr>>uint(i)&1) + uint64(dg>>uint(i)&1)
		}
	}
	m.reqPrev, m.gntPrev = req, gnt
}

// pop removes port w's granted head transaction in place: the queue
// keeps its backing array, so the next presentation appends without
// allocating, and the vacated tail slot is cleared so the queue does
// not pin a transaction the bus now holds.
func (m *Mux) pop(w int) {
	q := m.pending[w]
	n := copy(q, q[1:])
	q[n] = nil
	m.pending[w] = q[:n]
}

// Drained reports whether the mux holds no pending transaction and the
// wires are idle — the mux's contribution to a run's termination
// condition. A granted transaction is the bus's and its master's: the
// master is not done before it reads the stamp.
func (m *Mux) Drained() bool {
	if m.reqPrev != 0 || m.gntPrev != 0 {
		return false
	}
	for i := 0; i < m.n; i++ {
		if len(m.pending[i]) > 0 {
			return false
		}
	}
	return true
}

// TotalGrants returns the committed grants across all ports.
func (m *Mux) TotalGrants() uint64 {
	var s uint64
	for _, g := range m.grants {
		s += g
	}
	return s
}

// MasterEnergy returns the arbitration-wire energy attributed to port
// i: its edge count priced at EdgeEnergyJ.
func (m *Mux) MasterEnergy(i int) float64 { return float64(m.edges[i]) * EdgeEnergyJ }

// TotalEnergy returns the arbitration-wire energy of the run. It is
// computed as the port-order sum of MasterEnergy, so the per-master
// attribution telescopes to this total bit-for-bit by construction.
func (m *Mux) TotalEnergy() float64 {
	var s float64
	for i := 0; i < m.n; i++ {
		s += m.MasterEnergy(i)
	}
	return s
}

// ReportMetrics books the mux's run totals into a registry (nil-safe).
func (m *Mux) ReportMetrics(r *metrics.Registry) {
	r.Arbitration(m.TotalGrants(), m.grantWaits, m.contentions, m.TotalEnergy())
}

// Port is one master's view of the arbitrated bus: a core.Initiator
// with the same request/wait/ok/error protocol as the bus models, so
// every master built for a single-master layer drives it unchanged.
type Port struct {
	m *Mux
	i int
}

// Access queues tr for arbitration and answers StateWait: the master
// presents it again each cycle until the grant hands it to the bus,
// which stamps it accepted (or done), and from then on reads the stamp
// (core.Present). A transaction presented again while queued keeps its
// place. As a guard, a transaction a bus took answers from its stamp,
// with no effect.
func (p *Port) Access(tr *ecbus.Transaction) ecbus.BusState {
	switch {
	case tr.Done:
		return tr.Outcome()
	case tr.Accepted:
		return ecbus.StateWait
	}
	q := &p.m.pending[p.i]
	if !slices.Contains(*q, tr) {
		*q = append(*q, tr)
	}
	return ecbus.StateWait
}
