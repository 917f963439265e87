package core

import (
	"repro/internal/ecbus"
	"repro/internal/metrics"
)

// TxCounts are the transaction counters a bus's ledger keeps (Counts).
type TxCounts struct {
	Accepted  uint64 // transactions accepted onto the bus
	Completed uint64 // transactions finished OK
	Errors    uint64 // transactions finished with a bus error
	Rejected  uint64 // Access attempts refused (category full)
}

// Ledger is a cycle-level bus model's account of its transactions: the
// Initiator contract's admission and retire rules, written once for
// rtlbus, tlm1, tlm2 and the batch engine's lanes. A bus embeds it and
// keeps only its own queues and timing: Access admits through the
// ledger and queues what it accepts, and every completion retires
// through it, so only the ledger stamps a transaction's outcome.
//
// The ledger also keeps the bus's half of the Refuser contract: Refused
// is promoted to the bus, a refusal lasts until the next retire, and the
// cycle after that retire is a wake cycle the bus must execute (Wake).
//
// The zero value is ready and books nothing to a metrics registry.
type Ledger struct {
	perCat  [ecbus.NumCategories]int // accepted, not yet retired
	refused bool                     // a request was refused since the last retire
	wake    uint64                   // the cycle after the retire that ended a refusal
	counts  TxCounts

	mx *metrics.Registry
}

// SetMetrics books the ledger's accepts, refusals and retires to reg
// (nil detaches).
func (l *Ledger) SetMetrics(reg *metrics.Registry) { l.mx = reg }

// Admit answers a master's Access for tr, presented for cycle issue. A
// finished transaction answers StateOK or StateError and an accepted
// one StateWait, with no effect: masters present neither (Present), so
// these answers are a guard. A fresh request is refused (StateWait)
// while its category is full, completes at once as an error when it is
// structurally invalid (it never reaches the wire), and is otherwise
// accepted: stamped, counted, and answered StateRequest, which tells the
// bus to queue it.
func (l *Ledger) Admit(tr *ecbus.Transaction, issue uint64) ecbus.BusState {
	if tr.Done {
		return tr.Outcome()
	}
	if tr.Accepted {
		return ecbus.StateWait
	}
	return l.admit(tr, issue)
}

// admit is the fresh-request half of Admit, kept out of line so the
// guard answer inlines into every bus's Access.
func (l *Ledger) admit(tr *ecbus.Transaction, issue uint64) ecbus.BusState {
	c := tr.Category()
	if l.Full(c) {
		l.Refused(1)
		return ecbus.StateWait
	}
	if tr.Validate() != nil {
		tr.Done, tr.Err = true, true
		l.counts.Errors++
		l.mx.TxRetired(tr, -1, true)
		return ecbus.StateError
	}
	tr.Accepted, tr.IssueCycle = true, issue
	l.perCat[c]++
	l.counts.Accepted++
	l.mx.TxAccepted(c, l.perCat[c])
	return ecbus.StateRequest
}

// Refused counts n refusals of a request whose category is full: the
// one Admit just made, or those a stalled master (Refuser) would have
// made on cycles the kernel skipped.
func (l *Ledger) Refused(n uint64) {
	l.refused = true
	l.counts.Rejected += n
	l.mx.TxRejected(n)
}

// Retire completes tr on cycle, with a bus error if err: it stamps the
// outcome, uncounts tr and books it to the slave the bus decoded it to
// (its ecbus.Map index, -1 on a decode miss). A retire that frees
// capacity while a refused request waits makes the next cycle a wake
// cycle.
func (l *Ledger) Retire(tr *ecbus.Transaction, cycle uint64, err bool, slave int) {
	tr.Done, tr.Err = true, err
	tr.DataCycle = cycle
	l.perCat[tr.Category()]--
	if l.refused {
		l.refused = false
		l.wake = cycle + 1
	}
	if err {
		l.counts.Errors++
	} else {
		l.counts.Completed++
	}
	if l.mx != nil {
		l.mx.TxRetired(tr, slave, err)
	}
}

// Wake reports whether cycle is a wake cycle: a refused master may
// sleep until a transaction completes, so the bus hint demands the cycle
// after the retire and the retry lands when the reference path's would.
func (l *Ledger) Wake(cycle uint64) bool { return l.wake != 0 && l.wake == cycle }

// Retired returns the number of transactions retired so far, with or
// without a bus error. A master that has seen this count unchanged since
// it last looked knows no transaction of this bus was stamped done in
// between.
func (l *Ledger) Retired() uint64 { return l.counts.Completed + l.counts.Errors }

// Full reports whether category c holds MaxOutstanding accepted
// transactions, so Admit would refuse a fresh request in it. Only a
// retire in c ends that.
func (l *Ledger) Full(c ecbus.Category) bool { return l.perCat[c] >= ecbus.MaxOutstanding }

// Counts returns a copy of the transaction counters.
func (l *Ledger) Counts() TxCounts { return l.counts }
