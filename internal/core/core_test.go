package core_test

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/mem"
	"repro/internal/rtlbus"
	"repro/internal/sim"
	"repro/internal/tlm1"
	"repro/internal/tlm2"
)

func TestScriptMasterSerialized(t *testing.T) {
	// Use the fully pipelined corpus: the verification corpus's issue
	// gaps make serialization free.
	items := core.PerfCorpus(lay, 120)

	k := sim.New(0)
	b := rtlbus.New(k, testMap())
	m := core.NewScriptMaster(k, b, core.CloneItems(items))
	m.MaxInFlight = 1
	n, _ := k.RunUntil(1_000_000, m.Done)
	if !m.Done() {
		t.Fatal("serialized run did not finish")
	}

	k2 := sim.New(0)
	b2 := rtlbus.New(k2, testMap())
	m2, n2 := core.RunScript(k2, b2, core.CloneItems(items), 1_000_000)
	if !m2.Done() || n <= n2 {
		t.Fatalf("serialized (%d cycles) not slower than pipelined (%d)", n, n2)
	}
	// Completion order equals issue order when serialized.
	done := m.Completed()
	for i := 1; i < len(done); i++ {
		if done[i].ID < done[i-1].ID {
			t.Fatal("serialized master completed out of order")
		}
	}
}

func TestScriptMasterNotBeforeRespected(t *testing.T) {
	k := sim.New(0)
	b := rtlbus.New(k, testMap())
	tr1, _ := ecbus.NewSingle(1, ecbus.Read, lay.Fast, ecbus.W32, 0)
	tr2, _ := ecbus.NewSingle(2, ecbus.Read, lay.Fast+4, ecbus.W32, 0)
	m, _ := core.RunScript(k, b, []core.Item{
		{Tr: tr1},
		{Tr: tr2, NotBefore: 20},
	}, 1000)
	if !m.Done() {
		t.Fatal("did not finish")
	}
	if tr2.IssueCycle < 20 {
		t.Fatalf("NotBefore violated: issued at %d", tr2.IssueCycle)
	}
	if tr1.IssueCycle != 0 {
		t.Fatalf("first item delayed: issued at %d", tr1.IssueCycle)
	}
}

func TestScriptMasterProgramOrderAcrossRejection(t *testing.T) {
	// Six writes to the slow slave: the category limit forces
	// rejections, but issue order must be preserved.
	k := sim.New(0)
	b := rtlbus.New(k, testMap())
	var items []core.Item
	for i := 0; i < 6; i++ {
		tr, _ := ecbus.NewSingle(uint64(i+1), ecbus.Write, lay.Slow+uint64(4*i), ecbus.W32, 7)
		items = append(items, core.Item{Tr: tr})
	}
	m, _ := core.RunScript(k, b, items, 10000)
	if !m.Done() || m.Errors() != 0 {
		t.Fatal("run failed")
	}
	for i := 1; i < len(items); i++ {
		if items[i].Tr.IssueCycle < items[i-1].Tr.IssueCycle {
			t.Fatal("program order violated across bus-full rejection")
		}
	}
}

func TestCorporaAreLegal(t *testing.T) {
	check := func(name string, items []core.Item) {
		for i, it := range items {
			if err := it.Tr.Validate(); err != nil {
				// Layer-2 native blocks aside, corpora must be canonical.
				t.Fatalf("%s item %d invalid: %v", name, i, err)
			}
		}
	}
	check("verification", core.VerificationCorpus(lay))
	check("perf", core.PerfCorpus(lay, 500))
	check("char", core.CharCorpus(lay, 500))
	for seed := uint64(1); seed <= 10; seed++ {
		check("random", core.RandomCorpus(seed, 500, lay))
	}
}

func TestRandomCorpusDeterministic(t *testing.T) {
	a := core.RandomCorpus(42, 100, lay)
	b := core.RandomCorpus(42, 100, lay)
	for i := range a {
		if a[i].Tr.String() != b[i].Tr.String() || a[i].NotBefore != b[i].NotBefore {
			t.Fatal("random corpus not reproducible")
		}
	}
}

func TestCloneItemsDeep(t *testing.T) {
	items := core.VerificationCorpus(lay)
	c := core.CloneItems(items)
	c[0].Tr.Data[0] = 0xFFFF
	c[0].Tr.Done = true
	if items[0].Tr.Done || items[0].Tr.Data[0] == 0xFFFF {
		t.Fatal("CloneItems shares state")
	}
}

// TestErrorAgreementAcrossLayers injects decode misses and
// rights violations: all three layers must agree on which transactions
// fail.
func TestErrorAgreementAcrossLayers(t *testing.T) {
	mkMap := func() *ecbus.Map {
		rom := mem.NewROM("rom", 0x20000, 0x1000, 0, 0)
		return ecbus.MustMap(
			mem.NewRAM("fast", lay.Fast, 0x1000, 0, 0),
			mem.NewRAM("slow", lay.Slow, 0x1000, 1, 2),
			rom,
		)
	}
	build := func() []core.Item {
		var items []core.Item
		add := func(id uint64, kind ecbus.Kind, addr uint64) {
			tr, err := ecbus.NewSingle(id, kind, addr, ecbus.W32, 0xAB)
			if err != nil {
				t.Fatal(err)
			}
			items = append(items, core.Item{Tr: tr})
		}
		add(1, ecbus.Read, lay.Fast)       // ok
		add(2, ecbus.Read, 0x5000)         // decode miss
		add(3, ecbus.Write, 0x20010)       // ROM write: rights violation
		add(4, ecbus.Read, 0x20010)        // ROM read: ok
		add(5, ecbus.Write, lay.Slow+4)    // ok
		add(6, ecbus.Fetch, 0x5000)        // miss on instruction side
		add(7, ecbus.Read, lay.Fast+0xFFC) // last word: ok
		return items
	}
	type outcome []bool
	run := func(layer int) outcome {
		k := sim.New(0)
		var bus core.Initiator
		switch layer {
		case 0:
			bus = rtlbus.New(k, mkMap())
		case 1:
			bus = tlm1.New(k, mkMap())
		default:
			bus = tlm2.New(k, mkMap())
		}
		items := build()
		m, _ := core.RunScript(k, bus, items, 10000)
		if !m.Done() {
			t.Fatalf("layer %d error run hung", layer)
		}
		var out outcome
		for _, it := range items {
			out = append(out, it.Tr.Err)
		}
		return out
	}
	want := outcome{false, true, true, false, false, true, false}
	for layer := 0; layer <= 2; layer++ {
		got := run(layer)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("layer %d tx %d: err=%v, want %v", layer, i+1, got[i], want[i])
			}
		}
	}
}

// TestEEPROMDynamicWaitLayerBehaviour documents the layers' divergence
// on state-dependent wait states: layers 0/1 sample at address-phase
// start (identical), layer 2 at request creation (may differ in either
// direction) — but all layers agree on data and final state.
func TestEEPROMDynamicWaitLayerBehaviour(t *testing.T) {
	build := func() (*sim.Kernel, *ecbus.Map, *mem.EEPROM) {
		k := sim.New(0)
		ee := mem.NewEEPROM("ee", 0, 0x8000, k)
		return k, ecbus.MustMap(ee), ee
	}
	items := func() []core.Item {
		w, _ := ecbus.NewSingle(1, ecbus.Write, 0x100, ecbus.W32, 0x42)
		r, _ := ecbus.NewSingle(2, ecbus.Read, 0x100, ecbus.W32, 0)
		return []core.Item{{Tr: w}, {Tr: r, NotBefore: 6}}
	}
	type res struct {
		cycles uint64
		data   uint32
	}
	run := func(layer int) res {
		k, m, _ := build()
		var bus core.Initiator
		switch layer {
		case 0:
			bus = rtlbus.New(k, m)
		case 1:
			bus = tlm1.New(k, m)
		default:
			bus = tlm2.New(k, m)
		}
		its := items()
		sm, n := core.RunScript(k, bus, its, 100000)
		if !sm.Done() || sm.Errors() != 0 {
			t.Fatalf("layer %d EEPROM run failed", layer)
		}
		return res{cycles: n, data: its[1].Tr.Data[0]}
	}
	r0, r1, r2 := run(0), run(1), run(2)
	if r0.data != 0x42 || r1.data != 0x42 || r2.data != 0x42 {
		t.Fatalf("data disagreement: %#x %#x %#x", r0.data, r1.data, r2.data)
	}
	if r1.cycles != r0.cycles {
		t.Fatalf("layer 1 cycles %d != layer 0 %d with dynamic waits", r1.cycles, r0.cycles)
	}
	// Layer 2's stale sampling makes its estimate differ; here the read
	// is created while programming is in progress, so it books the full
	// remaining stall — document the direction for this scenario.
	if r2.cycles == r0.cycles {
		t.Logf("layer 2 happened to match (%d cycles)", r2.cycles)
	}
}

// TestAblationCharacterizationCorpus: characterizing on the evaluation
// corpus itself removes the transition-mix error, leaving only the
// structural scope gap — the layer-1 error shrinks toward it but must
// remain negative.
func TestAblationCharacterizationCorpus(t *testing.T) {
	items := core.VerificationCorpus(lay)

	gate, est := gateEnergy(t, core.CloneItems(items))
	selfTable := est.Char()

	k := sim.New(0)
	b := tlm1.New(k, testMap()).AttachPower(tlm1.NewPowerModel(selfTable))
	m, _ := core.RunScript(k, b, core.CloneItems(items), 1_000_000)
	if !m.Done() {
		t.Fatal("self-characterized run failed")
	}
	selfRatio := b.Power().TotalEnergy() / gate

	crossTable := characterize(t) // characterization corpus, as in the paper
	k2 := sim.New(0)
	b2 := tlm1.New(k2, testMap()).AttachPower(tlm1.NewPowerModel(crossTable))
	m2, _ := core.RunScript(k2, b2, core.CloneItems(items), 1_000_000)
	if !m2.Done() {
		t.Fatal("cross-characterized run failed")
	}
	crossRatio := b2.Power().TotalEnergy() / gate

	t.Logf("L1/gate ratio: self-characterized %.4f, cross-characterized %.4f", selfRatio, crossRatio)
	// The structural scope gap (decoder, clock, leakage outside the
	// layer-1 model) keeps the ratio below 1 regardless of which corpus
	// characterized the table...
	if selfRatio >= 1.0 || crossRatio >= 1.0 {
		t.Errorf("scope gap vanished: self %.3f, cross %.3f", selfRatio, crossRatio)
	}
	// ...while the transition-mix component moves the estimate when the
	// characterization corpus changes (in either direction).
	if selfRatio == crossRatio {
		t.Error("characterization corpus choice had no effect; mix component missing")
	}
}

// Property: at every layer, a write followed by a read of the same
// address returns the written value (read-your-writes on the single
// in-order bus).
func TestReadYourWritesProperty(t *testing.T) {
	f := func(off uint16, val uint32, layerSel uint8) bool {
		addr := lay.Fast + uint64(off&0x0FFC)
		layer := int(layerSel % 3)
		k := sim.New(0)
		var bus core.Initiator
		switch layer {
		case 0:
			bus = rtlbus.New(k, testMap())
		case 1:
			bus = tlm1.New(k, testMap())
		default:
			bus = tlm2.New(k, testMap())
		}
		w, _ := ecbus.NewSingle(1, ecbus.Write, addr, ecbus.W32, val)
		r, _ := ecbus.NewSingle(2, ecbus.Read, addr, ecbus.W32, 0)
		m, _ := core.RunScript(k, bus, []core.Item{{Tr: w}, {Tr: r}}, 10000)
		return m.Done() && !r.Err && r.Data[0] == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
