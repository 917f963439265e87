package core_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gatepower"
	"repro/internal/rtlbus"
	"repro/internal/sim"
	"repro/internal/tlm1"
	"repro/internal/tlm2"
)

// TestRunScriptAllocsIndependentOfLength pins the per-transaction
// allocation cost of every exact layer, energy model attached, at zero:
// a saturated script run makes the same number of heap allocations
// whether it carries 1024 or 4096 transactions. Only construction (the
// bus, the kernel, the master's completion list) allocates.
func TestRunScriptAllocsIndependentOfLength(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	char := characterize(t)
	allocs := func(layer, n int) uint64 {
		items := core.RandomCorpus(11, n, lay)
		for i := range items {
			items[i].NotBefore = 0 // saturate: every request as early as possible
		}
		var before, after runtime.MemStats
		runtime.GC() // no collection (and no runtime bookkeeping) mid-run
		runtime.ReadMemStats(&before)
		k := sim.New(0)
		var bus core.Initiator
		switch layer {
		case 0:
			b := rtlbus.New(k, testMap())
			est := gatepower.NewEstimator(gatepower.DefaultConfig())
			k.AtObserver(sim.Post, "gp", func(uint64) { est.Observe(b.Wires()) }, est.ObserveIdle)
			bus = b
		case 1:
			bus = tlm1.New(k, testMap()).AttachPower(tlm1.NewPowerModel(char))
		default:
			bus = tlm2.New(k, testMap()).AttachPower(tlm2.NewPowerModel(char))
		}
		m, _ := core.RunScript(k, bus, items, 1_000_000)
		runtime.ReadMemStats(&after)
		if !m.Done() {
			t.Fatalf("layer %d, n=%d: run did not finish", layer, n)
		}
		return after.Mallocs - before.Mallocs
	}
	// The runtime's background goroutines (the heap scavenger) allocate
	// now and then, which a run may be charged for; they only ever add,
	// so the least of three runs is the run's own count.
	least := func(layer, n int) uint64 {
		m := allocs(layer, n)
		for i := 0; i < 2; i++ {
			m = min(m, allocs(layer, n))
		}
		return m
	}
	for layer := 0; layer <= 2; layer++ {
		allocs(layer, 16) // warm up lazily initialized state
		short, long := least(layer, 1024), least(layer, 4096)
		if short != long {
			t.Errorf("layer %d: %d allocations for 1024 transactions, %d for 4096; want equal",
				layer, short, long)
		}
	}
}
