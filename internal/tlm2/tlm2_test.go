package tlm2

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/gatepower"
	"repro/internal/mem"
	"repro/internal/sim"
)

func bench() (*sim.Kernel, *Bus, *mem.RAM) {
	k := sim.New(0)
	fast := mem.NewRAM("fast", 0, 0x1000, 0, 0)
	b := New(k, ecbus.MustMap(
		fast,
		mem.NewRAM("slow", 0x10000, 0x1000, 1, 2),
	))
	return k, b, fast
}

func TestBurstIsSingleTransaction(t *testing.T) {
	k, b, _ := bench()
	tr, _ := ecbus.NewBurst(1, ecbus.Read, 0x300, nil)
	core.RunScript(k, b, []core.Item{{Tr: tr}}, 100)
	if st := b.Counts(); st.Accepted != 1 || st.Completed != 1 {
		t.Fatalf("counts = %+v, want one transaction", st)
	}
	// Beats: addr ends cycle 0; 4-beat block occupies cycles 1..4.
	if tr.DataCycle != 4 {
		t.Fatalf("burst end %d, want 4", tr.DataCycle)
	}
}

func TestNoSameCycleAddrData(t *testing.T) {
	// Structural layer-2 property: even a zero-wait single completes one
	// cycle after its address phase.
	k, b, _ := bench()
	tr, _ := ecbus.NewSingle(1, ecbus.Read, 0x10, ecbus.W32, 0)
	core.RunScript(k, b, []core.Item{{Tr: tr}}, 100)
	if tr.AddrCycle != 0 || tr.DataCycle != 1 {
		t.Fatalf("addr/data = %d/%d, want 0/1", tr.AddrCycle, tr.DataCycle)
	}
}

func TestStaleDynamicWaitSampling(t *testing.T) {
	// The layer-2 model re-samples dynamic wait states when the address
	// phase actually starts (the creation-time sample only seeds the
	// idle-skip hint): a read reaching the EEPROM mid-programming books
	// the stall still remaining at that point, like layers 0 and 1 do.
	k := sim.New(0)
	ee := mem.NewEEPROM("ee", 0, 0x8000, k)
	b := New(k, ecbus.MustMap(ee))
	w, _ := ecbus.NewSingle(1, ecbus.Write, 0x100, ecbus.W32, 5)
	r, _ := ecbus.NewSingle(2, ecbus.Read, 0x100, ecbus.W32, 0)
	m, _ := core.RunScript(k, b, []core.Item{{Tr: w}, {Tr: r, NotBefore: 10}}, 10000)
	if !m.Done() || r.Err {
		t.Fatal("EEPROM sequence failed")
	}
	if r.Data[0] != 5 {
		t.Fatalf("read back %d, want 5", r.Data[0])
	}
	if r.AddrCycle <= w.DataCycle {
		t.Fatal("read not stalled by programming at all")
	}
}

func TestDecodeErrorTicket(t *testing.T) {
	k, b, _ := bench()
	tr, _ := ecbus.NewSingle(1, ecbus.Read, 0x5000, ecbus.W32, 0)
	m, _ := core.RunScript(k, b, []core.Item{{Tr: tr}}, 50)
	if !m.Done() || !tr.Err {
		t.Fatal("decode miss not reported")
	}
	if b.Counts().Errors != 1 {
		t.Fatalf("errors = %d", b.Counts().Errors)
	}
}

func TestRejectionWhenCategoryFull(t *testing.T) {
	k, b, _ := bench()
	rejectedAt := -1
	k.At(sim.Rising, "m", func(c uint64) {
		if c != 0 {
			return
		}
		for i := 0; i < 5; i++ {
			tr, _ := ecbus.NewSingle(uint64(i), ecbus.Read, 0x10000+uint64(4*i), ecbus.W32, 0)
			if b.Access(tr) == ecbus.StateWait && rejectedAt < 0 {
				rejectedAt = i
			}
		}
	})
	k.Step()
	if rejectedAt != 4 {
		t.Fatalf("rejection at request %d, want 4 (MaxOutstanding)", rejectedAt)
	}
	if got := b.Counts().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
}

func TestPowerBookedPerPhase(t *testing.T) {
	table := gatepower.NewEstimator(gatepower.DefaultConfig()).Char()
	k, b, _ := bench()
	b.AttachPower(NewPowerModel(table))
	tr, _ := ecbus.NewBurst(1, ecbus.Write, 0x400, []uint32{1, 2, 3, 4})
	core.RunScript(k, b, []core.Item{{Tr: tr}}, 100)
	addr, data := b.Power().Phases()
	if addr != 1 || data != 1 {
		t.Fatalf("phases = %d/%d, want 1/1", addr, data)
	}
	if b.Power().TotalEnergy() <= 0 {
		t.Fatal("no energy booked")
	}
}

func TestSequentialDataHammingChain(t *testing.T) {
	// The data-phase estimate prices word-to-word Hamming distance:
	// a burst of identical words costs less than alternating patterns.
	table := gatepower.NewEstimator(gatepower.DefaultConfig()).Char()

	run := func(words []uint32) float64 {
		k, b, _ := bench()
		b.AttachPower(NewPowerModel(table))
		tr, _ := ecbus.NewBurst(1, ecbus.Write, 0x500, words)
		core.RunScript(k, b, []core.Item{{Tr: tr}}, 100)
		return b.Power().TotalEnergy()
	}
	flat := run([]uint32{7, 7, 7, 7})
	wild := run([]uint32{0x00000000, 0xFFFFFFFF, 0x00000000, 0xFFFFFFFF})
	if flat >= wild {
		t.Fatalf("flat burst (%.3e) not cheaper than alternating burst (%.3e)", flat, wild)
	}
}
