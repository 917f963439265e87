package core_test

import (
	"fmt"
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
