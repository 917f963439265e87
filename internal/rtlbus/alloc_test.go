package rtlbus_test

import (
	"testing"

	"repro/internal/ecbus"
	"repro/internal/gatepower"
	"repro/internal/mem"
	"repro/internal/rtlbus"
	"repro/internal/sim"
)

// The layer-0 bus process must be allocation-free in steady state: the
// unit queues are fixed rings of transaction pointers, so pumping
// transactions through an already-constructed bus observed by the
// gate-level estimator performs zero heap allocations (construction and
// transaction creation excluded).
func TestBusProcessZeroSteadyStateAllocs(t *testing.T) {
	k := sim.New(0)
	b := rtlbus.New(k, ecbus.MustMap(
		mem.NewRAM("fast", 0, 0x1000, 0, 0),
		mem.NewRAM("slow", 0x10000, 0x1000, 1, 2),
	))
	est := gatepower.NewEstimator(gatepower.DefaultConfig())
	k.AtObserver(sim.Post, "gp", func(uint64) { est.Observe(b.Wires()) }, est.ObserveIdle)

	wr, err := ecbus.NewSingle(1, ecbus.Write, 0x10000, ecbus.W32, 0xDEADBEEF)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := ecbus.NewBurst(2, ecbus.Read, 0x10000, nil)
	if err != nil {
		t.Fatal(err)
	}

	id := uint64(2)
	pump := func() {
		id += 2
		if err := wr.ResetSingle(id, ecbus.Write, 0x10000+4*(id%8), ecbus.W32, uint32(id)*0x9E37); err != nil {
			t.Fatal(err)
		}
		if err := rd.ResetBurst(id+1, ecbus.Read, 0x10000+16*(id%4)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			w, r := b.Access(wr), b.Access(rd)
			if w.Done() && r.Done() {
				return
			}
			k.Step()
		}
		t.Fatal("transactions did not complete")
	}
	pump() // warm up (lazy state, kernel start)

	if avg := testing.AllocsPerRun(100, pump); avg != 0 {
		t.Fatalf("steady-state allocations per pump = %v, want 0", avg)
	}
}
