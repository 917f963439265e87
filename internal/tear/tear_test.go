package tear

import "testing"

func TestNamedVocabulary(t *testing.T) {
	for _, name := range Names {
		p, ok := Named(name)
		if !ok {
			t.Fatalf("Named(%q) not ok", name)
		}
		if name == "none" && !p.Empty() {
			t.Fatal("none must be Empty")
		}
		if name != "none" {
			if p.Empty() {
				t.Fatalf("%q must not be Empty", name)
			}
			if p.CutProgram == 0 {
				t.Fatalf("named plan %q must use the layer-portable ordinal trigger", name)
			}
			if p.CutOffset >= 12 {
				t.Fatalf("%q offset %d exceeds the shortest NVM window (Flash, 12 cycles)", name, p.CutOffset)
			}
		}
	}
	if _, ok := Named("tear-never"); ok {
		t.Fatal("unknown plan resolved")
	}
}

func TestMonitorOrdinalTrigger(t *testing.T) {
	var cycle, programs uint64
	m := NewMonitor(Plan{Name: "t", CutProgram: 2, CutOffset: 5, Seed: 1},
		func() uint64 { return cycle }, nil, func() uint64 { return programs })

	cycle, programs = 10, 1
	if m.Check() {
		t.Fatal("latched before the target ordinal")
	}
	cycle, programs = 40, 2
	if !m.Check() {
		t.Fatal("must latch on the target ordinal")
	}
	if !m.Torn() || m.CutCycle() != 45 || m.CutProgram() != 2 {
		t.Fatalf("cut at cycle %d op %d", m.CutCycle(), m.CutProgram())
	}
	// Latched state is sticky and frozen.
	cycle, programs = 100, 9
	if !m.Check() || m.CutCycle() != 45 || m.CutProgram() != 2 {
		t.Fatal("latch must be sticky")
	}
}

func TestMonitorCycleAndJouleTriggers(t *testing.T) {
	var cycle uint64
	m := NewMonitor(Plan{Name: "c", CutCycle: 50}, func() uint64 { return cycle }, nil, nil)
	cycle = 49
	if m.Check() {
		t.Fatal("early latch")
	}
	cycle = 50
	if !m.Check() || m.CutCycle() != 50 {
		t.Fatalf("cycle trigger: torn=%v cut=%d", m.Torn(), m.CutCycle())
	}

	var energy float64
	cycle = 0
	jm := NewMonitor(Plan{Name: "j", BudgetJ: 1e-9},
		func() uint64 { return cycle }, func() float64 { return energy }, nil)
	energy = 0.5e-9
	if jm.Check() {
		t.Fatal("latched under budget")
	}
	cycle, energy = 7, 2e-9
	if !jm.Check() {
		t.Fatal("must latch at the budget")
	}
	if jm.CutCycle() != 7 || jm.CutEnergyJ() != 2e-9 {
		t.Fatalf("cut=%d J=%g", jm.CutCycle(), jm.CutEnergyJ())
	}
}

func TestMonitorNilAndEmpty(t *testing.T) {
	var m *Monitor
	if m.Check() || m.Torn() {
		t.Fatal("nil monitor must never latch")
	}
	e := NewMonitor(Plan{}, func() uint64 { return 1 }, nil, nil)
	if e.Check() || e.Torn() {
		t.Fatal("empty plan must never latch")
	}
}
