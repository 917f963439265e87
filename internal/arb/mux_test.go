package arb_test

import (
	"math"
	"testing"

	"repro/internal/arb"
	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/gatepower"
	"repro/internal/platform"
	"repro/internal/rtlbus"
	"repro/internal/sim"
	"repro/internal/tlm1"
	"repro/internal/tlm2"
)

// layerRun is one single-master run's comparable outcome.
type layerRun struct {
	cycles  uint64
	items   []core.Item
	energyJ float64
}

// runLayer executes items through the named layer, optionally behind a
// single-master mux, and returns the comparable outcome.
func runLayer(t *testing.T, layer int, items []core.Item, policy arb.Policy, muxed bool) layerRun {
	t.Helper()
	char := platform.DefaultCharTable()
	k := sim.New(0)
	var mux *arb.Mux
	if muxed {
		mux = arb.NewMux(k, policy, 1)
	}
	var bus core.Initiator
	var energy func() float64
	switch layer {
	case 0:
		b := rtlbus.New(k, testMap())
		est := gatepower.NewEstimator(gatepower.DefaultConfig())
		k.At(sim.Post, "gatepower", func(uint64) { est.Observe(b.Wires()) })
		bus, energy = b, est.TotalEnergy
	case 1:
		b := tlm1.New(k, testMap()).AttachPower(tlm1.NewPowerModel(char))
		bus, energy = b, b.Power().TotalEnergy
	default:
		b := tlm2.New(k, testMap()).AttachPower(tlm2.NewPowerModel(char))
		bus, energy = b, b.Power().TotalEnergy
	}
	drive := bus
	if muxed {
		mux.Bind(bus)
		drive = mux.Port(0)
	}
	m, n := core.RunScript(k, drive, items, 1_000_000)
	if !m.Done() {
		t.Fatalf("layer %d (muxed=%v) run did not finish", layer, muxed)
	}
	if muxed && !mux.Drained() {
		t.Fatalf("layer %d: mux not drained", layer)
	}
	return layerRun{cycles: n, items: items, energyJ: energy()}
}

// TestMuxTransparency pins the arbitration front's zero-cost contract
// for the single-master case: a master driving any layer through a
// one-port mux observes the identical per-transaction address/data
// cycles, data words and error flags, the identical run length, and
// the bit-identical bus energy of a direct connection. (IssueCycle is
// exempt: the mux's head-of-line presentation defers the bookkeeping
// issue stamp of queued-behind transactions without moving any bus
// phase — the wires, and therefore the energy, are untouched.) This is
// what keeps single-master sweep configurations byte-identical to
// their pre-arbiter outputs.
func TestMuxTransparency(t *testing.T) {
	for _, policy := range arb.Policies {
		for layer := 0; layer <= 2; layer++ {
			corpora := map[string][]core.Item{
				"verification": core.VerificationCorpus(lay),
				"random":       core.RandomCorpus(42, 200, lay),
			}
			for name, items := range corpora {
				direct := runLayer(t, layer, core.CloneItems(items), policy, false)
				muxed := runLayer(t, layer, core.CloneItems(items), policy, true)
				if direct.cycles != muxed.cycles {
					t.Fatalf("%s L%d/%s: direct %d cycles, muxed %d",
						policy, layer, name, direct.cycles, muxed.cycles)
				}
				if math.Float64bits(direct.energyJ) != math.Float64bits(muxed.energyJ) {
					t.Fatalf("%s L%d/%s: energy differs: direct %x muxed %x",
						policy, layer, name, direct.energyJ, muxed.energyJ)
				}
				for i := range direct.items {
					a, b := direct.items[i].Tr, muxed.items[i].Tr
					if a.AddrCycle != b.AddrCycle || a.DataCycle != b.DataCycle || a.Err != b.Err {
						t.Fatalf("%s L%d/%s tx %d: direct addr/data/err=%d/%d/%v muxed=%d/%d/%v",
							policy, layer, name, i, a.AddrCycle, a.DataCycle, a.Err,
							b.AddrCycle, b.DataCycle, b.Err)
					}
					for w := range a.Data {
						if a.Data[w] != b.Data[w] {
							t.Fatalf("%s L%d/%s tx %d word %d: %#x vs %#x",
								policy, layer, name, i, w, a.Data[w], b.Data[w])
						}
					}
				}
			}
		}
	}
}

// TestMuxGrantAllocFree checks that the arbitration queue reuses its
// storage: once warm, presenting a transaction through a port, granting
// it to the bus and retiring it allocates nothing.
func TestMuxGrantAllocFree(t *testing.T) {
	k := sim.New(0)
	mux := arb.NewMux(k, arb.RoundRobin, 2)
	mux.Bind(tlm1.New(k, testMap()))
	port := mux.Port(1)
	tr := new(ecbus.Transaction)
	var id uint64
	cycle := func() {
		id++
		if err := tr.ResetSingle(id, ecbus.Write, lay.Fast, ecbus.W32, uint32(id)); err != nil {
			t.Fatal(err)
		}
		port.Access(tr)
		for !tr.Done || !mux.Drained() {
			k.Step()
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("present, grant and retire allocate %.1f times", n)
	}
}
