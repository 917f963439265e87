package tlm1_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/gatepower"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tlm1"
)

func bench() (*sim.Kernel, *tlm1.Bus) {
	k := sim.New(0)
	b := tlm1.New(k, ecbus.MustMap(
		mem.NewRAM("fast", 0, 0x1000, 0, 0),
		mem.NewRAM("slow", 0x10000, 0x1000, 1, 2),
	))
	return k, b
}

func single(id uint64, kind ecbus.Kind, addr uint64, w ecbus.Width, data uint32) *ecbus.Transaction {
	tr, err := ecbus.NewSingle(id, kind, addr, w, data)
	if err != nil {
		panic(err)
	}
	return tr
}

func TestAccessStateSequence(t *testing.T) {
	k, b := bench()
	tr := single(1, ecbus.Read, 0x10000, ecbus.W32, 0) // slow: AW=1, RW=2
	var states []ecbus.BusState
	k.At(sim.Rising, "m", func(uint64) {
		if len(states) == 0 || !states[len(states)-1].Done() {
			states = append(states, b.Access(tr))
		}
	})
	k.Run(12)
	// request, then wait while in progress, then ok.
	if states[0] != ecbus.StateRequest {
		t.Fatalf("first state %v, want request", states[0])
	}
	last := states[len(states)-1]
	if last != ecbus.StateOK {
		t.Fatalf("final state %v, want ok", last)
	}
	waits := 0
	for _, s := range states[1 : len(states)-1] {
		if s != ecbus.StateWait {
			t.Fatalf("middle state %v, want wait", s)
		}
		waits++
	}
	if waits == 0 {
		t.Fatal("no wait states observed for the slow slave")
	}
}

func TestSeveralRequestsStartableInOneCycle(t *testing.T) {
	// The paper: "By using these states it is possible to start several
	// bus requests during one cycle."
	k, b := bench()
	var trs []*ecbus.Transaction
	for i := 0; i < 3; i++ {
		trs = append(trs, single(uint64(i+1), ecbus.Read, uint64(4*i), ecbus.W32, 0))
	}
	accepted := 0
	k.At(sim.Rising, "m", func(c uint64) {
		if c != 0 {
			return
		}
		for _, tr := range trs {
			if b.Access(tr) == ecbus.StateRequest {
				accepted++
			}
		}
	})
	k.Step()
	if accepted != 3 {
		t.Fatalf("accepted %d requests in one cycle, want 3", accepted)
	}
}

func TestFinishedRequestPickedUpByNextCall(t *testing.T) {
	k, b := bench()
	tr := single(1, ecbus.Read, 0x10, ecbus.W32, 0)
	core.RunScript(k, b, []core.Item{{Tr: tr}}, 100)
	if !tr.Done {
		t.Fatal("not done")
	}
	if st := b.Access(tr); st != ecbus.StateOK {
		t.Fatalf("poll after completion = %v, want ok", st)
	}
}

func TestOutstandingLimit(t *testing.T) {
	k, b := bench()
	var sts []ecbus.BusState
	k.At(sim.Rising, "m", func(c uint64) {
		if c != 0 {
			return
		}
		for i := 0; i < 5; i++ {
			tr := single(uint64(i+1), ecbus.Write, 0x10000+uint64(4*i), ecbus.W32, 1)
			sts = append(sts, b.Access(tr))
		}
	})
	k.Step()
	for i := 0; i < 4; i++ {
		if sts[i] != ecbus.StateRequest {
			t.Fatalf("request %d state %v", i, sts[i])
		}
	}
	if sts[4] != ecbus.StateWait {
		t.Fatalf("fifth write accepted beyond MaxOutstanding: %v", sts[4])
	}
	if b.Counts().Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", b.Counts().Rejected)
	}
}

func TestErrorReturnsStateError(t *testing.T) {
	k, b := bench()
	tr := single(1, ecbus.Read, 0x5000, ecbus.W32, 0) // decode hole
	m, _ := core.RunScript(k, b, []core.Item{{Tr: tr}}, 100)
	if m.Errors() != 1 || !tr.Err {
		t.Fatal("decode miss not reported as error")
	}
	if st := b.Access(tr); st != ecbus.StateError {
		t.Fatalf("poll = %v, want error", st)
	}
}

func TestPowerModelCycleProfile(t *testing.T) {
	table := gatepower.NewEstimator(gatepower.DefaultConfig()).Char()
	k, b := bench()
	b.AttachPower(tlm1.NewPowerModel(table))
	tr := single(1, ecbus.Write, 0x10020, ecbus.W32, 0xFFFFFFFF)
	m := core.NewScriptMaster(k, b, []core.Item{{Tr: tr}})

	var profile []float64
	k.At(sim.Post, "profile", func(uint64) {
		profile = append(profile, b.Power().EnergyLastCycle())
	})
	k.RunUntil(100, m.Done)

	// Cycle 0 must dissipate energy (address bus leaves reset state).
	if profile[0] <= 0 {
		t.Fatal("no energy in first active cycle")
	}
	// Total equals the sum of the per-cycle profile.
	var sum float64
	for _, e := range profile {
		sum += e
	}
	if d := sum - b.Power().TotalEnergy(); d > 1e-18 || d < -1e-18 {
		t.Fatalf("profile sum %.3e != total %.3e", sum, b.Power().TotalEnergy())
	}
}

func TestPowerDisabledByDefault(t *testing.T) {
	k, b := bench()
	if b.Power() != nil {
		t.Fatal("power model attached by default")
	}
	tr := single(1, ecbus.Read, 0, ecbus.W32, 0)
	m, _ := core.RunScript(k, b, []core.Item{{Tr: tr}}, 100)
	if !m.Done() {
		t.Fatal("run without power model failed")
	}
}

func TestIdleBusNoEnergyAfterSettle(t *testing.T) {
	table := gatepower.NewEstimator(gatepower.DefaultConfig()).Char()
	k, b := bench()
	b.AttachPower(tlm1.NewPowerModel(table))
	tr := single(1, ecbus.Read, 0x40, ecbus.W32, 0)
	m, _ := core.RunScript(k, b, []core.Item{{Tr: tr}}, 100)
	if !m.Done() {
		t.Fatal("run failed")
	}
	b.Power().EnergySince()
	k.Run(10) // idle cycles
	if e := b.Power().EnergySince(); e != 0 {
		t.Fatalf("idle bus dissipated %.3e J at the interface", e)
	}
}

func TestStatsCounters(t *testing.T) {
	k, b := bench()
	items := []core.Item{
		{Tr: single(1, ecbus.Read, 0x0, ecbus.W32, 0)},
		{Tr: single(2, ecbus.Write, 0x4, ecbus.W32, 9)},
	}
	core.RunScript(k, b, items, 100)
	if st := b.Counts(); st != (core.TxCounts{Accepted: 2, Completed: 2}) {
		t.Fatalf("counts = %+v", st)
	}
}
