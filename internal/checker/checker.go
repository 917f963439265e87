// Package checker is an assertion-based protocol monitor for the EC
// interface: it watches the layer-0 wire bundle cycle by cycle and
// flags violations of the protocol invariants the models must uphold.
// It is the verification IP a bus-model methodology ships with — the
// executable form of the interface specification rules listed in
// package rtlbus.
//
// Checked invariants:
//
//	A1  ARdy only while AValid (no acceptance without a request).
//	A2  Address and controls stable from AValid assertion to ARdy
//	    (no mid-phase address changes).
//	A3  AValid never deasserts before ARdy (requests are not dropped).
//	D1  RdVal and RBErr never asserted together.
//	D2  WDRdy and WBErr never asserted together.
//	D3  Data beats only while a transaction of that direction is
//	    outstanding; a burst never delivers more beats than its length
//	    (an errored burst must terminate at the failing beat).
//	E1  Error strobes only during an active data phase of the matching
//	    direction, or on the acceptance cycle of the failing address
//	    phase; an error with no matching outstanding request is flagged.
//	O1  Wire-visible data-phase occupancy per category never exceeds
//	    ecbus.MaxOutstanding.
//	B1  BFirst only with Burst during address phases.
//
// The checker reconstructs outstanding transactions from the wires
// alone: every ARdy enqueues the accepted request (direction, category
// and burst length read off the address-phase wires) into a per-
// direction FIFO, the EC data units serve each direction strictly in
// order, and beats/errors retire FIFO heads. One wire-level ambiguity
// is unavoidable: a same-cycle coincidence of an address-phase abort
// and a data-phase error on the same direction cannot be split apart;
// the checker attributes the pulse to the oldest outstanding
// transaction (and otherwise to the aborted acceptance).
package checker

import (
	"fmt"

	"repro/internal/ecbus"
)

// Violation is one detected protocol violation.
type Violation struct {
	Cycle uint64
	Rule  string
	Info  string
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("cycle %d: %s: %s", v.Cycle, v.Rule, v.Info)
}

// pendingTx is a transaction the checker reconstructed from its
// address-phase wires, awaiting its data beats.
type pendingTx struct {
	cat   ecbus.Category
	words int // expected beats
	beats int // delivered so far
}

// Checker watches the EC wire bundle.
type Checker struct {
	prev  ecbus.Bundle
	first bool
	cycle uint64

	inAddrPhase bool
	heldA       uint64
	heldCtl     [4]uint64 // Instr, Write, Burst, BE

	// Wire-reconstructed outstanding transactions, FIFO per direction.
	readTx  []pendingTx
	writeTx []pendingTx

	occupancy [ecbus.NumCategories]int

	violations []Violation
}

// New returns a checker; feed it Observe every Post phase.
func New() *Checker { return &Checker{first: true} }

// Violations returns all detected violations.
func (c *Checker) Violations() []Violation { return c.violations }

// Clean reports whether no violation was seen.
func (c *Checker) Clean() bool { return len(c.violations) == 0 }

func (c *Checker) flag(rule, format string, a ...any) {
	c.violations = append(c.violations, Violation{
		Cycle: c.cycle, Rule: rule, Info: fmt.Sprintf(format, a...),
	})
}

// Observe checks one cycle of wire state.
func (c *Checker) Observe(b *ecbus.Bundle) {
	defer func() {
		c.prev = *b
		c.first = false
		c.cycle++
	}()

	avalid := b.Bool(ecbus.SigAValid)
	ardy := b.Bool(ecbus.SigARdy)

	// A1: acceptance without request.
	if ardy && !avalid {
		c.flag("A1", "ARdy asserted without AValid")
	}

	// A2/A3: phase stability and no dropped requests.
	ctl := [4]uint64{
		b.Get(ecbus.SigInstr), b.Get(ecbus.SigWrite),
		b.Get(ecbus.SigBurst), b.Get(ecbus.SigBE),
	}
	switch {
	case avalid && !c.inAddrPhase:
		// Phase starts this cycle.
		c.inAddrPhase = true
		c.heldA = b.Get(ecbus.SigA)
		c.heldCtl = ctl
	case avalid && c.inAddrPhase:
		if b.Get(ecbus.SigA) != c.heldA {
			// A new phase may begin the cycle after an acceptance; a
			// change without an intervening ARdy is a violation.
			if !c.prev.Bool(ecbus.SigARdy) {
				c.flag("A2", "address changed mid-phase: %#x -> %#x", c.heldA, b.Get(ecbus.SigA))
			}
			c.heldA = b.Get(ecbus.SigA)
			c.heldCtl = ctl
		} else if ctl != c.heldCtl && !c.prev.Bool(ecbus.SigARdy) {
			c.flag("A2", "controls changed mid-phase")
		}
	case !avalid && c.inAddrPhase:
		if !c.prev.Bool(ecbus.SigARdy) {
			c.flag("A3", "AValid dropped before ARdy")
		}
		c.inAddrPhase = false
	}
	if ardy {
		// Acceptance ends the tracked phase (a new one may start next
		// cycle).
		c.inAddrPhase = false
	}

	// D1/D2: strobe exclusivity.
	if b.Bool(ecbus.SigRdVal) && b.Bool(ecbus.SigRBErr) {
		c.flag("D1", "RdVal and RBErr together")
	}
	if b.Bool(ecbus.SigWDRdy) && b.Bool(ecbus.SigWBErr) {
		c.flag("D2", "WDRdy and WBErr together")
	}

	// B1: burst qualifiers.
	if b.Bool(ecbus.SigBFirst) && !b.Bool(ecbus.SigBurst) && avalid {
		c.flag("B1", "BFirst without Burst during address phase")
	}

	c.trackTransactions(b, ardy)
}

// trackTransactions reconstructs the outstanding-transaction state and
// enforces the D3/E1/O1 rules. An accepted address phase is enqueued
// before this cycle's beats and errors are matched: the bus serves
// address unit first, so a zero-wait transaction may legally accept and
// deliver its first beat within one cycle.
func (c *Checker) trackTransactions(b *ecbus.Bundle, ardy bool) {
	accepted := false
	var tx pendingTx
	var toWrite bool
	if ardy {
		accepted = true
		toWrite = b.Bool(ecbus.SigWrite)
		words := 1
		if b.Bool(ecbus.SigBurst) {
			words = ecbus.BurstLen
		}
		cat := ecbus.CatDataRead
		switch {
		case toWrite:
			cat = ecbus.CatWrite
		case b.Bool(ecbus.SigInstr):
			cat = ecbus.CatInstrRead
		}
		tx = pendingTx{cat: cat, words: words}
	}

	// Error strobes retire the oldest outstanding transaction of their
	// direction; with none outstanding they must mark the abort of an
	// address phase accepted this very cycle (decode or rights error).
	if b.Bool(ecbus.SigRBErr) {
		switch {
		case len(c.readTx) > 0:
			c.retire(&c.readTx)
		case accepted && !toWrite:
			accepted = false // address-phase abort: never enters a data phase
		default:
			c.flag("E1", "RBErr with no outstanding read and no aborted acceptance")
		}
	}
	if b.Bool(ecbus.SigWBErr) {
		switch {
		case len(c.writeTx) > 0:
			c.retire(&c.writeTx)
		case accepted && toWrite:
			accepted = false
		default:
			c.flag("E1", "WBErr with no outstanding write and no aborted acceptance")
		}
	}

	if accepted {
		q := &c.readTx
		if toWrite {
			q = &c.writeTx
		}
		*q = append(*q, tx)
		c.occupancy[tx.cat]++
		if c.occupancy[tx.cat] > ecbus.MaxOutstanding {
			c.flag("O1", "%v data-phase occupancy %d exceeds limit %d",
				tx.cat, c.occupancy[tx.cat], ecbus.MaxOutstanding)
		}
	}

	if b.Bool(ecbus.SigRdVal) {
		c.beat(&c.readTx, "read")
	}
	if b.Bool(ecbus.SigWDRdy) {
		c.beat(&c.writeTx, "write")
	}
}

// retire removes the head transaction of a direction queue.
func (c *Checker) retire(q *[]pendingTx) {
	c.occupancy[(*q)[0].cat]--
	*q = (*q)[1:]
}

// beat attributes a delivered data beat to the head transaction of its
// direction, retiring it after its final beat.
func (c *Checker) beat(q *[]pendingTx, dir string) {
	if len(*q) == 0 {
		c.flag("D3", "%s beat with no outstanding %s transaction", dir, dir)
		return
	}
	head := &(*q)[0]
	head.beats++
	if head.beats >= head.words {
		c.retire(q)
	}
}
