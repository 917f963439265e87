package arb

// Accessors only this package's tests use.

import "repro/internal/sim"

// Masters returns the number of master ports.
func (a *Arbiter) Masters() int { return a.n }

// Observe registers o as a Post-phase observer on k: every executed
// cycle it receives the request mask the mux sampled at arbitration and
// the grant pulse it drove (at most one bit). Call it after NewMux and
// before the run. The checker's grant-protocol monitor hooks in here.
func (m *Mux) Observe(k *sim.Kernel, o func(cycle uint64, req, gnt uint32)) {
	k.AtObserver(sim.Post, "arb-wires", func(c uint64) { o(c, m.reqPrev, m.gntPrev) }, nil)
}

// Masters returns the number of ports.
func (m *Mux) Masters() int { return m.n }

// Grants returns port i's committed grant count.
func (m *Mux) Grants(i int) uint64 { return m.grants[i] }

// Contentions returns the number of executed ticks on which more than
// one master was requesting — the contention-window count.
func (m *Mux) Contentions() uint64 { return m.contentions }

// Edges returns port i's request+grant wire transition count.
func (m *Mux) Edges(i int) uint64 { return m.edges[i] }
