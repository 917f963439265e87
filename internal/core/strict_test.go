package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/arb"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/crypto"
	"repro/internal/dma"
	"repro/internal/ecbus"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/rtlbus"
	"repro/internal/sim"
	"repro/internal/tlm1"
	"repro/internal/tlm2"
	"repro/internal/tlm3"
	"repro/internal/trace"
)

// strictBus holds the masters in front of it to the present-once
// contract: a master presents an attempt until a bus holds it and then
// reads the stamp, so presenting a transaction a bus holds (accepted,
// not done) or one that is done is a violation. Refusals and arbiter
// queueing pass through unchanged, and Unwrap exposes the wrapped bus
// so a master still finds its Refuser.
type strictBus struct {
	inner      core.Initiator
	presented  int
	violations int
	first      string
}

func (b *strictBus) Access(tr *ecbus.Transaction) ecbus.BusState {
	b.presented++
	if tr.Done || tr.Accepted {
		if b.violations == 0 {
			b.first = fmt.Sprintf("tx %d presented with done=%v accepted=%v", tr.ID, tr.Done, tr.Accepted)
		}
		b.violations++
	}
	return b.inner.Access(tr)
}

func (b *strictBus) Unwrap() core.Initiator { return b.inner }

// check fails t when any presentation broke the contract or none
// happened at all.
func (b *strictBus) check(t *testing.T, name string) {
	t.Helper()
	if b.presented == 0 {
		t.Errorf("%s: no transaction presented; the test exercises nothing", name)
	}
	if b.violations > 0 {
		t.Errorf("%s: %d of %d presentations re-presented a held or done transaction; first: %s",
			name, b.violations, b.presented, b.first)
	}
}

// strictPlan faults the first two attempts of a read of one word and of
// a write of another, so a master touching both re-issues.
func strictPlan(read, write uint64) fault.Plan {
	return fault.Plan{Scripted: []fault.ScriptedFault{
		{Op: fault.OpRead, Addr: read, After: 0, Count: 2},
		{Op: fault.OpWrite, Addr: write, After: 0, Count: 2},
	}}
}

// TestStrictScriptMaster drives a pipelined script with retries through
// every cycle-level layer and the counting bus.
func TestStrictScriptMaster(t *testing.T) {
	flaky, _ := fault.Named("flaky")
	for _, layer := range []string{"L0", "TL1", "TL2", "TL3"} {
		t.Run(layer, func(t *testing.T) {
			k := sim.New(0)
			bmap := faultMap(flaky)
			var bus core.Initiator
			switch layer {
			case "L0":
				bus = rtlbus.New(k, bmap)
			case "TL1":
				bus = tlm1.New(k, bmap)
			case "TL2":
				bus = tlm2.New(k, bmap)
			default:
				bus = tlm3.NewCounter(bmap)
			}
			strict := &strictBus{inner: bus}
			m := core.NewScriptMaster(k, strict, core.RandomCorpus(5, 300, lay))
			m.Retry = eqRetry
			if _, done := k.RunUntil(1_000_000, m.Done); !done {
				t.Fatal("run did not finish")
			}
			if m.TotalRetries() == 0 {
				t.Fatal("no retries: the flaky plan exercised nothing")
			}
			strict.check(t, layer)
		})
	}
}

// TestStrictBlockingMaster runs pooled single transactions, one of them
// retried, through a blocking master.
func TestStrictBlockingMaster(t *testing.T) {
	k := sim.New(0)
	strict := &strictBus{inner: tlm1.New(k, faultMap(strictPlan(lay.Slow+8, lay.Slow+4)))}
	m := core.NewBlockingMaster(k, strict, eqRetry)
	for i := uint64(0); i < 4; i++ {
		for _, kind := range []ecbus.Kind{ecbus.Write, ecbus.Read} {
			tr, err := m.Single(kind, lay.Slow+4*i, ecbus.W32, uint32(i))
			if err != nil {
				t.Fatal(err)
			}
			if st := m.Run(tr); st != ecbus.StateOK {
				t.Fatalf("%v %#x: %v", kind, tr.Addr, st)
			}
		}
	}
	if m.Retries != 4 {
		t.Fatalf("%d retries, want 4", m.Retries)
	}
	strict.check(t, "blocking master")
}

// TestStrictArbitratedMasters runs the crypto master and the DMA engine
// side by side behind arbitration ports, with retried transfers; the
// mux itself presents to a strict bus too.
func TestStrictArbitratedMasters(t *testing.T) {
	src, dst := lay.Fast+0x400, lay.Slow+0x400
	k := sim.New(0)
	mux := arb.NewMux(k, arb.RoundRobin, 2)
	below := &strictBus{inner: tlm1.New(k, faultMap(strictPlan(src+0x10, dst+0x20)))}
	mux.Bind(below)
	cp, dp := &strictBus{inner: mux.Port(0)}, &strictBus{inner: mux.Port(1)}
	cm := crypto.NewMaster(k, cp, 7, []crypto.Job{{Src: src, Dst: dst + 0x100, Blocks: 3}})
	cm.Retry = eqRetry
	de := dma.New(k, dp, []dma.Descriptor{{Src: src, Dst: dst, Words: 9}})
	de.Retry = eqRetry
	if _, done := k.RunUntil(1_000_000, func() bool { return cm.Done() && de.Done() && mux.Drained() }); !done {
		t.Fatal("run did not drain")
	}
	if cm.Errors+de.Errors != 0 || cm.Retries+de.Retries == 0 {
		t.Fatalf("errors %d/%d, retries %d/%d: want no error and some retries",
			cm.Errors, de.Errors, cm.Retries, de.Retries)
	}
	cp.check(t, "crypto port")
	dp.check(t, "dma port")
	below.check(t, "mux")
}

// TestStrictCPU runs a load/store loop on the instruction-set simulator,
// directly on the bus and behind an arbitration port, with and without
// the instruction cache.
func TestStrictCPU(t *testing.T) {
	prog := cpu.MustAssemble(0, `
		lui  $s0, 1
		li   $t0, 12
	loop:
		blez $t0, done
		nop
		sw   $t0, 0($s0)
		lw   $t1, 0($s0)
		sb   $t1, 5($s0)
		addu $s1, $s1, $t1
		addiu $t0, $t0, -1
		b    loop
		nop
	done:
		break
	`)
	for _, muxed := range []bool{false, true} {
		for _, icache := range []bool{false, true} {
			name := fmt.Sprintf("muxed=%v/icache=%v", muxed, icache)
			k := sim.New(0)
			var mux *arb.Mux
			if muxed {
				mux = arb.NewMux(k, arb.FixedPriority, 1)
			}
			rom := mem.NewROM("rom", 0, 0x4000, 0, 1)
			if err := rom.LoadWords(0, prog); err != nil {
				t.Fatal(err)
			}
			var bus core.Initiator = tlm1.New(k, ecbus.MustMap(rom, mem.NewRAM("ram", 0x10000, 0x1000, 1, 2)))
			if muxed {
				mux.Bind(bus)
				bus = mux.Port(0)
			}
			strict := &strictBus{inner: bus}
			c := cpu.New(k, strict, cpu.Config{ICache: icache})
			k.RunUntil(1_000_000, c.Halted)
			if !c.Halted() || c.Fault() != nil || c.Reg(17) != 12*13/2 {
				t.Fatalf("%s: halted %v, fault %v, sum %d", name, c.Halted(), c.Fault(), c.Reg(17))
			}
			strict.check(t, name)
		}
	}
}

// refusalBus watches the refusals that pass through it. It learns of a
// retire from the transactions it saw accepted: one no longer held
// (done, or reset for a retry) has retired. A refusal is stable when
// the bus never accepts a transaction it refused before a transaction
// of its category retires (unstable counts the breaches); a master keeps
// the stable-refusal rule when it never presents such a transaction to
// be refused again in the meantime (repeats counts those). Unwrap
// exposes the bus, so a master behind it finds its Refuser.
type refusalBus struct {
	inner     core.Initiator
	held      [ecbus.NumCategories][]*ecbus.Transaction
	retires   [ecbus.NumCategories]int
	refusedAt map[*ecbus.Transaction]int // retires in tr's category at tr's last refusal
	refusals  int
	repeats   int
	unstable  int
	first     string
}

func newRefusalBus(inner core.Initiator) *refusalBus {
	return &refusalBus{inner: inner, refusedAt: map[*ecbus.Transaction]int{}}
}

func (b *refusalBus) Access(tr *ecbus.Transaction) ecbus.BusState {
	for c := range b.held {
		keep := b.held[c][:0]
		for _, h := range b.held[c] {
			if h.Accepted && !h.Done {
				keep = append(keep, h)
			} else {
				b.retires[c]++
			}
		}
		b.held[c] = keep
	}
	st := b.inner.Access(tr)
	c := tr.Category()
	n, wasRefused := b.refusedAt[tr]
	stuck := wasRefused && n == b.retires[c]
	switch st {
	case ecbus.StateRequest:
		b.held[c] = append(b.held[c], tr)
		delete(b.refusedAt, tr)
		if stuck {
			b.unstable++
		}
	case ecbus.StateWait:
		b.refusals++
		if stuck {
			if b.repeats == 0 {
				b.first = fmt.Sprintf("tx %d refused again with no %v retire since", tr.ID, c)
			}
			b.repeats++
		}
		b.refusedAt[tr] = b.retires[c]
	default:
		delete(b.refusedAt, tr)
	}
	return st
}

func (b *refusalBus) Unwrap() core.Initiator { return b.inner }

// opaqueBus hides the bus it wraps: it has no Unwrap, so a master behind
// it finds no Refuser and takes the per-cycle path, presenting a refused
// request again on every cycle and scanning its in-flight list.
type opaqueBus struct{ inner core.Initiator }

func (b opaqueBus) Access(tr *ecbus.Transaction) ecbus.BusState { return b.inner.Access(tr) }

// refusalOutcome is what one TestStrictRefusals run reports.
type refusalOutcome struct {
	rejected      uint64
	completed     int
	errors        int
	retries       int
	cycles        uint64
	timing, trace string
}

// runRefusals drives a crowded pipelined script with the flaky plan and
// retries through a trace.Recorder on a fresh bus of the given layer,
// the master presenting to wrap(recorder) under a strict wrapper. It
// returns the outcome and the refusalBus wrap put in the stack.
func runRefusals(t *testing.T, layer string, wrap func(*refusalBus) core.Initiator) (refusalOutcome, *refusalBus) {
	t.Helper()
	flaky, _ := fault.Named("flaky")
	items := core.RandomCorpus(11, 400, lay)
	for i := range items {
		items[i].NotBefore /= 4 // crowd the bus so categories fill
	}
	k := sim.New(0)
	bmap := faultMap(flaky)
	var bus core.Initiator
	var rejected func() uint64
	switch layer {
	case "L0":
		b := rtlbus.New(k, bmap)
		bus, rejected = b, func() uint64 { return b.Counts().Rejected }
	case "TL1":
		b := tlm1.New(k, bmap)
		bus, rejected = b, func() uint64 { return b.Counts().Rejected }
	default:
		b := tlm2.New(k, bmap)
		bus, rejected = b, func() uint64 { return b.Counts().Rejected }
	}
	rec := trace.NewRecorder(bus)
	rb := newRefusalBus(rec)
	strict := &strictBus{inner: wrap(rb)}
	m := core.NewScriptMaster(k, strict, items)
	m.Retry = eqRetry
	n, done := k.RunUntil(1_000_000, m.Done)
	if !done {
		t.Fatal("run did not finish")
	}
	strict.check(t, layer)
	if rb.unstable > 0 {
		t.Errorf("%s: the bus accepted %d refused transactions with no retire in their category since", layer, rb.unstable)
	}
	var tb, sb strings.Builder
	for _, tr := range m.Completed() {
		fmt.Fprintf(&tb, "%d:%d/%d/%d/%v ", tr.ID, tr.IssueCycle, tr.AddrCycle, tr.DataCycle, tr.Err)
	}
	if err := trace.Save(&sb, rec.Records()); err != nil {
		t.Fatal(err)
	}
	return refusalOutcome{rejected(), len(m.Completed()), m.Errors(), m.TotalRetries(), n, tb.String(), sb.String()}, rb
}

func exposed(rb *refusalBus) core.Initiator { return rb }
func hidden(rb *refusalBus) core.Initiator  { return opaqueBus{rb} }

// TestStrictRefusals runs the same crowded, faulted script at every
// cycle-level layer twice: with the bus exposed, so the master takes
// its Refuser path (it sleeps through a full category, books the
// refusals it does not present and harvests only after a retire), and
// behind opaqueBus, the per-cycle path. Refusals must be stable on
// both, both must draw the same refusals, completions, retries, timing
// and trace, and the per-cycle path must present every refusal it
// draws, so the fallback stays covered.
func TestStrictRefusals(t *testing.T) {
	for _, layer := range []string{"L0", "TL1", "TL2"} {
		t.Run(layer, func(t *testing.T) {
			fast, _ := runRefusals(t, layer, exposed)
			slow, ob := runRefusals(t, layer, hidden)
			if fast.retries == 0 || fast.rejected == 0 {
				t.Fatalf("retries %d, refusals %d: the run exercised neither retries nor a full category",
					fast.retries, fast.rejected)
			}
			if fast.rejected != slow.rejected || fast.completed != slow.completed ||
				fast.errors != slow.errors || fast.retries != slow.retries || fast.cycles != slow.cycles {
				t.Errorf("totals differ: refuser path rejected %d completed %d errors %d retries %d cycles %d; "+
					"per-cycle path %d %d %d %d %d",
					fast.rejected, fast.completed, fast.errors, fast.retries, fast.cycles,
					slow.rejected, slow.completed, slow.errors, slow.retries, slow.cycles)
			}
			if fast.timing != slow.timing || fast.trace != slow.trace {
				t.Error("refuser and per-cycle paths differ in per-transaction timing or trace")
			}
			if uint64(ob.refusals) != slow.rejected || ob.repeats == 0 {
				t.Errorf("per-cycle path: %d Access refusals (%d repeated) for %d booked; want every refusal presented",
					ob.refusals, ob.repeats, slow.rejected)
			}
		})
	}
}

// TestStrictNoRepeatedRefusal holds the Refuser path to the
// stable-refusal rule: no Access is refused twice in a row for one
// transaction without a retire in its category in between. A master
// that knows the category is still full books the refusal itself.
func TestStrictNoRepeatedRefusal(t *testing.T) {
	for _, layer := range []string{"L0", "TL1", "TL2"} {
		t.Run(layer, func(t *testing.T) {
			_, rb := runRefusals(t, layer, exposed)
			if rb.repeats > 0 {
				t.Errorf("%d of %d refusals repeated one with no retire in between; first: %s",
					rb.repeats, rb.refusals, rb.first)
			}
		})
	}
}
