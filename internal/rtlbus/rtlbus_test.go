package rtlbus

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/mem"
	"repro/internal/sim"
)

// testbench: a fast RAM (0 waits) at 0x0000 and a slow RAM (1 addr wait,
// 2 data waits) at 0x10000.
func bench() (*sim.Kernel, *Bus, *mem.RAM, *mem.RAM) {
	k := sim.New(0)
	fast := mem.NewRAM("fast", 0x0000, 0x1000, 0, 0)
	slow := mem.NewRAM("slow", 0x10000, 0x1000, 1, 2)
	b := New(k, ecbus.MustMap(fast, slow))
	return k, b, fast, slow
}

func run(t *testing.T, k *sim.Kernel, b *Bus, items []core.Item) (*core.ScriptMaster, uint64) {
	t.Helper()
	m, n := core.RunScript(k, b, items, 100000)
	if !m.Done() {
		t.Fatalf("script did not complete in %d cycles", n)
	}
	return m, n
}

func single(id uint64, kind ecbus.Kind, addr uint64, w ecbus.Width, data uint32) *ecbus.Transaction {
	tr, err := ecbus.NewSingle(id, kind, addr, w, data)
	if err != nil {
		panic(err)
	}
	return tr
}

func burst(id uint64, kind ecbus.Kind, addr uint64, data []uint32) *ecbus.Transaction {
	tr, err := ecbus.NewBurst(id, kind, addr, data)
	if err != nil {
		panic(err)
	}
	return tr
}

func TestSingleReadZeroWaitCompletesSameCycle(t *testing.T) {
	k, b, fast, _ := bench()
	fast.LoadWords(0x100, []uint32{0x12345678})
	tr := single(1, ecbus.Read, 0x100, ecbus.W32, 0)
	run(t, k, b, []core.Item{{Tr: tr}})
	if tr.AddrCycle != 0 || tr.DataCycle != 0 {
		t.Fatalf("addr/data cycles = %d/%d, want 0/0", tr.AddrCycle, tr.DataCycle)
	}
	if tr.Data[0] != 0x12345678 {
		t.Fatalf("read data %#x", tr.Data[0])
	}
}

func TestSingleReadWaitStates(t *testing.T) {
	k, b, _, slow := bench()
	slow.LoadWords(0x40, []uint32{0xCAFEBABE})
	tr := single(1, ecbus.Read, 0x10040, ecbus.W32, 0)
	run(t, k, b, []core.Item{{Tr: tr}})
	// addr phase: cycles 0..1 (AW=1); data beat: 2 waits after addr end.
	if tr.AddrCycle != 1 {
		t.Fatalf("AddrCycle = %d, want 1", tr.AddrCycle)
	}
	if tr.DataCycle != 3 {
		t.Fatalf("DataCycle = %d, want 3", tr.DataCycle)
	}
	if tr.Data[0] != 0xCAFEBABE {
		t.Fatalf("read data %#x", tr.Data[0])
	}
}

func TestSingleWriteMergePatterns(t *testing.T) {
	k, b, fast, _ := bench()
	fast.LoadWords(0x200, []uint32{0xFFFFFFFF})
	items := []core.Item{
		{Tr: single(1, ecbus.Write, 0x201, ecbus.W8, 0x00005A00)},  // lane 1
		{Tr: single(2, ecbus.Write, 0x202, ecbus.W16, 0x12340000)}, // lanes 2,3
	}
	run(t, k, b, items)
	got, _ := fast.ReadWord(0x200, ecbus.W32)
	if got != 0x12345AFF {
		t.Fatalf("merged word = %#x, want 0x12345AFF", got)
	}
}

func TestBurstReadBeatTiming(t *testing.T) {
	k, b, fast, _ := bench()
	fast.LoadWords(0x300, []uint32{1, 2, 3, 4})
	tr := burst(1, ecbus.Read, 0x300, nil)
	run(t, k, b, []core.Item{{Tr: tr}})
	// addr cycle 0; beats on cycles 0,1,2,3.
	if tr.DataCycle != 3 {
		t.Fatalf("burst DataCycle = %d, want 3", tr.DataCycle)
	}
	for i, want := range []uint32{1, 2, 3, 4} {
		if tr.Data[i] != want {
			t.Fatalf("beat %d = %d, want %d", i, tr.Data[i], want)
		}
	}
}

func TestBurstWithDataWaits(t *testing.T) {
	k, b, _, _ := bench()
	tr := burst(1, ecbus.Write, 0x10100, []uint32{10, 20, 30, 40})
	run(t, k, b, []core.Item{{Tr: tr}})
	// addr: cycles 0..1. Beat i completes at addr-end + DW + i*(DW+1):
	// cycles 3, 6, 9, 12.
	if tr.AddrCycle != 1 || tr.DataCycle != 12 {
		t.Fatalf("addr/data = %d/%d, want 1/12", tr.AddrCycle, tr.DataCycle)
	}
}

func TestBackToBackReadsPipeline(t *testing.T) {
	k, b, _, _ := bench()
	a := single(1, ecbus.Read, 0x400, ecbus.W32, 0)
	c := single(2, ecbus.Read, 0x404, ecbus.W32, 0)
	run(t, k, b, []core.Item{{Tr: a}, {Tr: c}})
	// Serialized address phases: cycles 0 and 1; each data beat follows
	// its address phase immediately (0 waits).
	if a.AddrCycle != 0 || a.DataCycle != 0 {
		t.Fatalf("first read %d/%d, want 0/0", a.AddrCycle, a.DataCycle)
	}
	if c.AddrCycle != 1 || c.DataCycle != 1 {
		t.Fatalf("second read %d/%d, want 1/1", c.AddrCycle, c.DataCycle)
	}
}

func TestWriteThenReadReordering(t *testing.T) {
	k, b, _, _ := bench()
	w := single(1, ecbus.Write, 0x10080, ecbus.W32, 0xFEEDFACE) // slow
	r := single(2, ecbus.Read, 0x148, ecbus.W32, 0)             // fast
	run(t, k, b, []core.Item{{Tr: w}, {Tr: r}})
	// Write addr: 0..1; write beat: 2 waits -> cycle 3. Read addr: 2,
	// read beat: 2. The read completes before the earlier write.
	if r.DataCycle >= w.DataCycle {
		t.Fatalf("no reordering: read done %d, write done %d", r.DataCycle, w.DataCycle)
	}
	if w.DataCycle != 3 || r.DataCycle != 2 {
		t.Fatalf("write/read done = %d/%d, want 3/2", w.DataCycle, r.DataCycle)
	}
}

func TestOutstandingLimitPerCategory(t *testing.T) {
	k, b, _, _ := bench()
	// 6 reads to the slow slave, all presented at cycle 0. Only 4 may be
	// outstanding; the 5th is accepted only after the 1st completes.
	var items []core.Item
	for i := 0; i < 6; i++ {
		items = append(items, core.Item{Tr: single(uint64(i+1), ecbus.Read, 0x10000+uint64(4*i), ecbus.W32, 0)})
	}
	m, _ := run(t, k, b, items)
	if got := b.Counts().Rejected; got == 0 {
		t.Fatal("expected rejections from the outstanding limit")
	}
	if len(m.Completed()) != 6 || m.Errors() != 0 {
		t.Fatalf("completed %d with %d errors", len(m.Completed()), m.Errors())
	}
	// Reads return in order on the single read data bus.
	for i := 1; i < 6; i++ {
		if items[i].Tr.DataCycle <= items[i-1].Tr.DataCycle {
			t.Fatalf("read data not in order: %d then %d",
				items[i-1].Tr.DataCycle, items[i].Tr.DataCycle)
		}
	}
}

func TestDecodeMissError(t *testing.T) {
	k, b, _, _ := bench()
	tr := single(1, ecbus.Read, 0x8000, ecbus.W32, 0) // hole
	m, _ := run(t, k, b, []core.Item{{Tr: tr}})
	if !tr.Err || m.Errors() != 1 {
		t.Fatal("decode miss did not error")
	}
	if tr.DataCycle != 0 {
		t.Fatalf("error completion cycle %d, want 0 (1-cycle addr phase)", tr.DataCycle)
	}
	if b.Counts().Errors != 1 {
		t.Fatalf("counted errors = %d", b.Counts().Errors)
	}
}

func TestAccessRightsError(t *testing.T) {
	k := sim.New(0)
	rom := mem.NewROM("rom", 0, 0x1000, 0, 0)
	b := New(k, ecbus.MustMap(rom))
	tr := single(1, ecbus.Write, 0x10, ecbus.W32, 1)
	m, _ := run(t, k, b, []core.Item{{Tr: tr}})
	if !tr.Err || m.Errors() != 1 {
		t.Fatal("write to ROM did not error")
	}
}

func TestEEPROMDynamicWait(t *testing.T) {
	k := sim.New(0)
	ee := mem.NewEEPROM("eeprom", 0, 0x8000, k)
	b := New(k, ecbus.MustMap(ee))
	w := single(1, ecbus.Write, 0x100, ecbus.W32, 0xAB)
	r := single(2, ecbus.Read, 0x100, ecbus.W32, 0)
	run(t, k, b, []core.Item{{Tr: w}, {Tr: r, NotBefore: 8}})
	// The read lands during the programming cycle and must stall until
	// it ends; EEPROM.ProgramCycles is 32 from the write's cycle.
	if r.AddrCycle < w.DataCycle+20 {
		t.Fatalf("read not stalled by programming: write done %d, read addr %d",
			w.DataCycle, r.AddrCycle)
	}
	if got, _ := ee.ReadWord(0x100, ecbus.W32); got != 0xAB {
		t.Fatalf("EEPROM word = %#x", got)
	}
	if r.Data[0] != 0xAB {
		t.Fatalf("read-back = %#x", r.Data[0])
	}
}

func TestVerificationCorpusCompletes(t *testing.T) {
	k, b, _, _ := bench()
	items := core.VerificationCorpus(core.Layout{Fast: 0, Slow: 0x10000})
	m, cycles := run(t, k, b, items)
	if m.Errors() != 0 {
		t.Fatalf("%d errors in verification corpus", m.Errors())
	}
	if cycles == 0 || len(m.Completed()) != len(items) {
		t.Fatalf("completed %d/%d in %d cycles", len(m.Completed()), len(items), cycles)
	}
	st := b.Counts()
	if st.Completed != uint64(len(items)) || st.Accepted != uint64(len(items)) {
		t.Fatalf("counts: %+v", st)
	}
}

func TestWiresDuringAddressPhase(t *testing.T) {
	k, b, _, _ := bench()
	tr := single(1, ecbus.Write, 0x10204, ecbus.W32, 0x55AA55AA) // slow: AW=1
	core.NewScriptMaster(k, b, []core.Item{{Tr: tr}})
	k.Step() // cycle 0: first address-phase cycle, not yet ready
	w := b.Wires()
	if !w.Bool(ecbus.SigAValid) || w.Bool(ecbus.SigARdy) {
		t.Fatalf("cycle 0: AValid=%v ARdy=%v, want true/false",
			w.Bool(ecbus.SigAValid), w.Bool(ecbus.SigARdy))
	}
	if w.Get(ecbus.SigA) != 0x10204 || !w.Bool(ecbus.SigWrite) {
		t.Fatal("address/Write wires not driven")
	}
	if w.Get(ecbus.SigSel) != 1 {
		t.Fatalf("decoder select = %d, want 1 (slow)", w.Get(ecbus.SigSel))
	}
	k.Step() // cycle 1: address accepted
	if !w.Bool(ecbus.SigARdy) {
		t.Fatal("cycle 1: ARdy not asserted")
	}
	k.Run(8)
	if !tr.Done || tr.Err {
		t.Fatal("transaction did not finish")
	}
}

func TestIdleBusDrivesNoStrobes(t *testing.T) {
	k, b, _, _ := bench()
	k.Run(5)
	w := b.Wires()
	for _, s := range []ecbus.SignalID{ecbus.SigAValid, ecbus.SigARdy, ecbus.SigRdVal,
		ecbus.SigWDRdy, ecbus.SigRBErr, ecbus.SigWBErr} {
		if w.Bool(s) {
			t.Fatalf("idle bus asserts %v", s)
		}
	}
	if c := b.Counts(); c != (core.TxCounts{}) {
		t.Fatalf("idle bus counted %+v", c)
	}
}

func TestInvalidTransactionFailsFast(t *testing.T) {
	_, b, _, _ := bench()
	tr := &ecbus.Transaction{ID: 1, Kind: ecbus.Read, Addr: 0x101, Width: ecbus.W32, Data: []uint32{0}}
	if st := b.Access(tr); st != ecbus.StateError {
		t.Fatalf("misaligned access returned %v, want error", st)
	}
}

func TestRandomCorpusNoHangs(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		k, b, _, _ := bench()
		items := core.RandomCorpus(seed, 300, core.Layout{Fast: 0, Slow: 0x10000})
		m, _ := core.RunScript(k, b, items, 1_000_000)
		if !m.Done() {
			t.Fatalf("seed %d: corpus hung", seed)
		}
		if m.Errors() != 0 {
			t.Fatalf("seed %d: %d unexpected errors", seed, m.Errors())
		}
	}
}
