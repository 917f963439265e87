package platform

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/gatepower"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/rtlbus"
	"repro/internal/sim"
	"repro/internal/tlm1"
	"repro/internal/tlm2"
)

// NewBus builds the bus model of the given layer over m on kernel k and
// returns it with a reader of its bus energy. This is the one place a
// layer number becomes a bus: every harness — the platform, the paper
// tables, the exploration sweep and the trace replayer — goes through it.
//
// With energy on, layer 0 gets the gate-level estimator observing the
// wires (skipped cycles integrated exactly by ObserveIdle), and layers 1
// and 2 get their power models priced by char. With energy off the
// reader returns 0 and char is ignored. A non-nil reg receives the bus
// metrics; at layer 0 they attach after the estimator's observer, so
// each sample sees its cycle's energy already added.
func NewBus(k *sim.Kernel, layer Layer, m *ecbus.Map, energy bool, char gatepower.CharTable, reg *metrics.Registry) (core.Initiator, func() float64) {
	total := func() float64 { return 0 }
	switch layer {
	case Layer0:
		b := rtlbus.New(k, m)
		var meter func() float64 // nil: counters only
		if energy {
			total = observeGates(k, b).TotalEnergy
			meter = total
		}
		if reg != nil {
			b.AttachMetrics(k, reg, meter)
		}
		return b, total
	case Layer1:
		b := tlm1.New(k, m)
		if energy {
			total = b.AttachPower(tlm1.NewPowerModel(char)).Power().TotalEnergy
		}
		if reg != nil {
			b.AttachMetrics(reg)
		}
		return b, total
	case Layer2:
		b := tlm2.New(k, m)
		if energy {
			total = b.AttachPower(tlm2.NewPowerModel(char)).Power().TotalEnergy
		}
		if reg != nil {
			b.AttachMetrics(reg)
		}
		return b, total
	}
	panic(fmt.Sprintf("platform: unknown layer %d", int(layer)))
}

// observeGates attaches a gate-level estimator with the default
// configuration to the layer-0 bus's wires.
func observeGates(k *sim.Kernel, b *rtlbus.Bus) *gatepower.Estimator {
	est := gatepower.NewEstimator(gatepower.DefaultConfig())
	k.AtObserver(sim.Post, "gatepower", func(uint64) { est.Observe(b.Wires()) }, est.ObserveIdle)
	return est
}

// RefLayout is the reference two-slave layout of the accuracy
// experiments and the characterization run: a zero-wait fast RAM and a
// slow RAM with one address and two data wait states.
var RefLayout = core.Layout{Fast: 0, Slow: 0x10000}

// RefMap builds a fresh address map of the RefLayout RAM pair.
func RefMap() *ecbus.Map {
	return ecbus.MustMap(
		mem.NewRAM("fast", RefLayout.Fast, 0x1000, 0, 0),
		mem.NewRAM("slow", RefLayout.Slow, 0x1000, 1, 2),
	)
}

var defaultChar = sync.OnceValue(characterize)

// DefaultCharTable returns the repository's standard characterization
// table, computed once per process. This mirrors the paper's flow:
// characterize once on the prototype database, then reuse the table in
// every transaction-level model.
func DefaultCharTable() gatepower.CharTable { return defaultChar() }

// characterize runs the characterization corpus (core.CharCorpus)
// through the layer-0 model of RefMap under the default gate-level
// configuration and returns the per-signal transition energies.
func characterize() gatepower.CharTable {
	k := sim.New(0)
	b := rtlbus.New(k, RefMap())
	est := observeGates(k, b)
	m, _ := core.RunScript(k, b, core.CharCorpus(RefLayout, 400), 1_000_000)
	if !m.Done() {
		panic("platform: characterization run did not complete")
	}
	return est.Char()
}
