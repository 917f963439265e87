package platform

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gatepower"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// TestGoldenCharacterizationModeInvariant runs the unmemoized
// characterization on the reference path (every cycle executed) and on
// the optimized path (idle cycles skipped, integrated by ObserveIdle):
// the two tables must agree bit for bit, and both must be the table
// every transaction-level model is priced with.
func TestGoldenCharacterizationModeInvariant(t *testing.T) {
	core.SetReference(true)
	ref := characterize()
	core.SetReference(false)
	opt := characterize()
	shared := DefaultCharTable()
	for id := range ref.PerTransitionJ {
		r := math.Float64bits(ref.PerTransitionJ[id])
		if o := math.Float64bits(opt.PerTransitionJ[id]); o != r {
			t.Errorf("signal %d: reference %#x, optimized %#x", id, r, o)
		}
		if s := math.Float64bits(shared.PerTransitionJ[id]); s != r {
			t.Errorf("signal %d: reference %#x, DefaultCharTable %#x", id, r, s)
		}
	}
}

// TestNewBusEnergyAndMetrics checks the builder's contract at every
// layer: energy off reads 0, energy on reads the run's positive total,
// and an attached registry is finalized with exactly that total.
func TestNewBusEnergyAndMetrics(t *testing.T) {
	char := DefaultCharTable()
	for _, layer := range []Layer{Layer0, Layer1, Layer2} {
		run := func(energy bool, reg *metrics.Registry) float64 {
			k := sim.New(0)
			bus, total := NewBus(k, layer, RefMap(), energy, char, reg)
			m, _ := core.RunScript(k, bus, core.VerificationCorpus(RefLayout), 1_000_000)
			if !m.Done() {
				t.Fatalf("%v: run did not complete", layer)
			}
			return total()
		}
		if e := run(false, nil); e != 0 {
			t.Errorf("%v: energy off read %g J", layer, e)
		}
		plain := run(true, nil)
		if plain <= 0 {
			t.Errorf("%v: energy on read %g J", layer, plain)
		}
		reg := metrics.New(layer.String())
		if metered := run(true, reg); math.Float64bits(metered) != math.Float64bits(plain) {
			t.Errorf("%v: metrics moved the energy: %g vs %g J", layer, metered, plain)
		}
		reg.Finalize(plain)
		if s := reg.Snapshot(); s.TotalEnergyJ != plain || s.Completed == 0 {
			t.Errorf("%v: registry saw %d completions, %g J (want %g J)", layer, s.Completed, s.TotalEnergyJ, plain)
		}
	}
}

func TestNewBusUnknownLayerPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "unknown layer 7") {
			t.Fatalf("recovered %v, want an unknown-layer panic", r)
		}
	}()
	NewBus(sim.New(0), Layer(7), RefMap(), true, gatepower.CharTable{}, nil)
}
