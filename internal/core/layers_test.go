package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/gatepower"
	"repro/internal/mem"
	"repro/internal/rtlbus"
	"repro/internal/sim"
	"repro/internal/tlm1"
	"repro/internal/tlm2"
)

// The standard two-slave layout used by the accuracy experiments: a
// zero-wait RAM and a waited RAM, identical across layers.
var lay = core.Layout{Fast: 0, Slow: 0x10000}

func testMap() *ecbus.Map {
	return ecbus.MustMap(
		mem.NewRAM("fast", lay.Fast, 0x1000, 0, 0),
		mem.NewRAM("slow", lay.Slow, 0x1000, 1, 2),
	)
}

type runResult struct {
	cycles uint64
	items  []core.Item
	master *core.ScriptMaster
}

func runRTL(t *testing.T, items []core.Item) runResult {
	t.Helper()
	k := sim.New(0)
	b := rtlbus.New(k, testMap())
	m, n := core.RunScript(k, b, items, 1_000_000)
	if !m.Done() {
		t.Fatal("rtl run did not finish")
	}
	return runResult{cycles: n, items: items, master: m}
}

func runTL1(t *testing.T, items []core.Item) runResult {
	t.Helper()
	k := sim.New(0)
	b := tlm1.New(k, testMap())
	m, n := core.RunScript(k, b, items, 1_000_000)
	if !m.Done() {
		t.Fatal("tl1 run did not finish")
	}
	return runResult{cycles: n, items: items, master: m}
}

func runTL2(t *testing.T, items []core.Item) runResult {
	t.Helper()
	k := sim.New(0)
	b := tlm2.New(k, testMap())
	m, n := core.RunScript(k, b, items, 1_000_000)
	if !m.Done() {
		t.Fatal("tl2 run did not finish")
	}
	return runResult{cycles: n, items: items, master: m}
}

// TestLayer1CycleEquivalence is the paper's layer-1 accuracy claim
// (Table 1: 0% timing error): the layer-1 model is cycle-identical to
// the layer-0 reference, transaction by transaction.
func TestLayer1CycleEquivalence(t *testing.T) {
	corpora := map[string][]core.Item{
		"verification": core.VerificationCorpus(lay),
		"perf":         core.PerfCorpus(lay, 200),
	}
	for seed := uint64(1); seed <= 20; seed++ {
		corpora["random"] = core.RandomCorpus(seed, 250, lay)
		for name, items := range corpora {
			rtl := runRTL(t, core.CloneItems(items))
			tl1 := runTL1(t, core.CloneItems(items))
			if rtl.cycles != tl1.cycles {
				t.Fatalf("%s (seed %d): rtl %d cycles, tl1 %d cycles",
					name, seed, rtl.cycles, tl1.cycles)
			}
			for i := range rtl.items {
				a, b := rtl.items[i].Tr, tl1.items[i].Tr
				if a.AddrCycle != b.AddrCycle || a.DataCycle != b.DataCycle || a.Err != b.Err {
					t.Fatalf("%s (seed %d) tx %d: rtl addr/data/err=%d/%d/%v tl1=%d/%d/%v",
						name, seed, i, a.AddrCycle, a.DataCycle, a.Err,
						b.AddrCycle, b.DataCycle, b.Err)
				}
				for w := range a.Data {
					if a.Data[w] != b.Data[w] {
						t.Fatalf("%s tx %d word %d: data %#x vs %#x", name, i, w, a.Data[w], b.Data[w])
					}
				}
			}
		}
	}
}

// TestLayer2TimingError reproduces the Table-1 shape for the layer-2
// model: slightly slow (positive error), bounded.
func TestLayer2TimingError(t *testing.T) {
	items := core.VerificationCorpus(lay)
	rtl := runRTL(t, core.CloneItems(items))
	tl2 := runTL2(t, core.CloneItems(items))
	err := float64(tl2.cycles)/float64(rtl.cycles) - 1
	t.Logf("layer-2 timing error on verification corpus: %+.2f%% (rtl %d, tl2 %d cycles)",
		100*err, rtl.cycles, tl2.cycles)
	if err <= 0 {
		t.Fatalf("layer-2 should be conservative (positive error), got %+.2f%%", 100*err)
	}
	if err > 0.015 {
		t.Fatalf("layer-2 timing error %+.2f%% exceeds 1.5%% band", 100*err)
	}
}

// TestLayer2TimingErrorRandom keeps the layer-2 error inside the band on
// random mixed corpora and checks per-transaction conservatism.
func TestLayer2TimingErrorRandom(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		items := core.RandomCorpus(seed, 300, lay)
		rtl := runRTL(t, core.CloneItems(items))
		tl2 := runTL2(t, core.CloneItems(items))
		if tl2.cycles < rtl.cycles {
			t.Fatalf("seed %d: tl2 (%d) faster than rtl (%d)", seed, tl2.cycles, rtl.cycles)
		}
		err := float64(tl2.cycles)/float64(rtl.cycles) - 1
		if err > 0.03 {
			t.Fatalf("seed %d: timing error %+.2f%% out of band", seed, 100*err)
		}
		for i := range rtl.items {
			if tl2.items[i].Tr.DataCycle < rtl.items[i].Tr.DataCycle {
				t.Fatalf("seed %d tx %d: tl2 completed earlier (%d) than rtl (%d)",
					seed, i, tl2.items[i].Tr.DataCycle, rtl.items[i].Tr.DataCycle)
			}
		}
	}
}

// characterize runs the characterization corpus through the layer-0
// model under the gate-level estimator and extracts the per-transition
// table (paper §3.3, "Power Characterization").
func characterize(t testing.TB) gatepower.CharTable {
	t.Helper()
	k := sim.New(0)
	b := rtlbus.New(k, testMap())
	est := gatepower.NewEstimator(gatepower.DefaultConfig())
	k.At(sim.Post, "gatepower", func(uint64) { est.Observe(b.Wires()) })
	m, _ := core.RunScript(k, b, core.CharCorpus(lay, 400), 1_000_000)
	if !m.Done() {
		t.Fatal("characterization run did not finish")
	}
	return est.Char()
}

// gateEnergy runs items through layer 0 under the gate-level estimator.
func gateEnergy(t *testing.T, items []core.Item) (float64, *gatepower.Estimator) {
	t.Helper()
	k := sim.New(0)
	b := rtlbus.New(k, testMap())
	est := gatepower.NewEstimator(gatepower.DefaultConfig())
	k.At(sim.Post, "gatepower", func(uint64) { est.Observe(b.Wires()) })
	m, _ := core.RunScript(k, b, items, 1_000_000)
	if !m.Done() {
		t.Fatal("gate energy run did not finish")
	}
	return est.TotalEnergy(), est
}

// TestHierarchicalEnergyAccuracy reproduces the Table-2 shape: the
// layer-1 estimate lands below the gate-level reference (paper −7.8%),
// the layer-2 estimate above it (paper +14.7%).
func TestHierarchicalEnergyAccuracy(t *testing.T) {
	table := characterize(t)
	items := core.VerificationCorpus(lay)

	gate, _ := gateEnergy(t, core.CloneItems(items))

	k1 := sim.New(0)
	b1 := tlm1.New(k1, testMap()).AttachPower(tlm1.NewPowerModel(table))
	m1, _ := core.RunScript(k1, b1, core.CloneItems(items), 1_000_000)
	if !m1.Done() {
		t.Fatal("tl1 energy run did not finish")
	}
	e1 := b1.Power().TotalEnergy()

	k2 := sim.New(0)
	b2 := tlm2.New(k2, testMap()).AttachPower(tlm2.NewPowerModel(table))
	m2, _ := core.RunScript(k2, b2, core.CloneItems(items), 1_000_000)
	if !m2.Done() {
		t.Fatal("tl2 energy run did not finish")
	}
	e2 := b2.Power().TotalEnergy()

	r1 := e1 / gate
	r2 := e2 / gate
	t.Logf("energy: gate %.3f pJ, tl1 %.3f pJ (%.1f%%), tl2 %.3f pJ (%.1f%%)",
		gate*1e12, e1*1e12, 100*r1, e2*1e12, 100*r2)

	if r1 < 0.85 || r1 > 0.98 {
		t.Errorf("layer-1 energy ratio %.3f outside [0.85, 0.98] (paper: 0.921)", r1)
	}
	if r2 < 1.05 || r2 > 1.25 {
		t.Errorf("layer-2 energy ratio %.3f outside [1.05, 1.25] (paper: 1.147)", r2)
	}
	if r1 >= r2 {
		t.Errorf("hierarchy inverted: tl1 ratio %.3f >= tl2 ratio %.3f", r1, r2)
	}
}

// TestLayer1TransitionFidelity checks the "TL to RTL adapter" property:
// the layer-1 power model counts exactly the interface transitions the
// layer-0 wires produce.
func TestLayer1TransitionFidelity(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		items := core.RandomCorpus(seed, 200, lay)

		_, est := gateEnergy(t, core.CloneItems(items))
		var gateTrans uint64
		for id := ecbus.SignalID(0); id < ecbus.SigSel; id++ {
			gateTrans += est.SignalStats(id).Transitions()
		}

		k := sim.New(0)
		b := tlm1.New(k, testMap()).AttachPower(tlm1.NewPowerModel(gatepower.CharTable{}))
		m, _ := core.RunScript(k, b, core.CloneItems(items), 1_000_000)
		if !m.Done() {
			t.Fatal("tl1 run did not finish")
		}
		if got := b.Power().Transitions(); got != gateTrans {
			t.Fatalf("seed %d: tl1 counted %d interface transitions, gate level %d",
				seed, got, gateTrans)
		}
	}
}

// TestEnergySinceAccumulates exercises the shared power interface
// semantics: EnergySince drains, TotalEnergy does not.
func TestEnergySinceAccumulates(t *testing.T) {
	table := characterize(t)
	k := sim.New(0)
	b := tlm1.New(k, testMap()).AttachPower(tlm1.NewPowerModel(table))
	items := core.VerificationCorpus(lay)
	m := core.NewScriptMaster(k, b, items)
	var sampled float64
	for !m.Done() {
		k.Step()
		sampled += b.Power().EnergySince()
	}
	total := b.Power().TotalEnergy()
	if total <= 0 {
		t.Fatal("no energy estimated")
	}
	if diff := sampled - total; diff > 1e-18 || diff < -1e-18 {
		t.Fatalf("sampled %.6e J != total %.6e J", sampled, total)
	}
	if b.Power().EnergySince() != 0 {
		t.Fatal("EnergySince did not drain")
	}
}

// TestLayer2SamplingGranularity reproduces the Fig.-6 semantics: between
// two EnergySince samples, only phases that finished in the interval are
// included — a request still in its data phase contributes nothing yet.
func TestLayer2SamplingGranularity(t *testing.T) {
	table := characterize(t)
	k := sim.New(0)
	b := tlm2.New(k, testMap()).AttachPower(tlm2.NewPowerModel(table))

	// One read to the slow slave: addr phase cycles 0..1, data finishes
	// later (2 waits). Sample right after the address phase.
	tr, _ := ecbus.NewSingle(1, ecbus.Read, lay.Slow, ecbus.W32, 0)
	core.NewScriptMaster(k, b, []core.Item{{Tr: tr}})
	k.Run(3) // cycles 0..2: address done (cycle 1), data still counting
	mid := b.Power().EnergySince()
	if mid <= 0 {
		t.Fatal("address-phase energy not booked after phase end")
	}
	addrPh, dataPh := b.Power().Phases()
	if addrPh != 1 || dataPh != 0 {
		t.Fatalf("phases after addr sample: addr=%d data=%d, want 1/0", addrPh, dataPh)
	}
	k.Run(20)
	rest := b.Power().EnergySince()
	if rest <= 0 {
		t.Fatal("data-phase energy missing")
	}
	if _, dataPh = b.Power().Phases(); dataPh != 1 {
		t.Fatalf("data phases = %d, want 1", dataPh)
	}
}
