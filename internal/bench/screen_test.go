package bench

import (
	"math"
	"testing"

	"repro/internal/core"
)

// screenSuiteSeeds is the held-out evaluation range of the corpus
// screening property suite — disjoint from the training seeds.
func screenSuiteSeeds(t *testing.T) []uint64 {
	n := 100
	if testing.Short() {
		n = 12
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return seeds
}

// TestScreenModelErrorBand quantifies the analytic corpus model's
// held-out error against the exact TL2, TL1 and gate-level estimates
// across the random-corpus property suite, and pins a ceiling on it so
// a regression in the counting bus or the fit shows up as a failure,
// not a silent accuracy loss.
func TestScreenModelErrorBand(t *testing.T) {
	char := CharTable()
	seeds := screenSuiteSeeds(t)

	// Ceilings per layer. Energy screens tightly at every layer because
	// it is a sum of per-phase costs — invariant under transaction
	// overlap, exactly what event counting measures. Wall-clock cycles
	// of a pipelined script run are NOT additive (address phases hide
	// under in-flight data phases, and how much hides depends on the
	// interleaving), so the cycle band is structurally wide on corpus
	// traffic; the ceiling pins the measured band against regressions
	// rather than promising precision counting cannot deliver.
	ceilE := map[int]float64{0: 0.12, 1: 0.12, 2: 0.12}
	ceilC := map[int]float64{0: 0.35, 1: 0.35, 2: 0.35}

	maxE := map[int]float64{}
	maxC := map[int]float64{}
	for _, seed := range seeds {
		items := core.RandomCorpus(seed, 120, lay)
		for _, layer := range ScreenLayers {
			cycles, energyJ := runLayer(layer, core.CloneItems(items), true, char)
			predE, predC, err := ScreenCorpus(layer, core.CloneItems(items))
			if err != nil {
				t.Fatalf("seed %d layer %d: %v", seed, layer, err)
			}
			relE := math.Abs(predE-energyJ) / energyJ
			relC := math.Abs(predC-float64(cycles)) / float64(cycles)
			maxE[layer] = math.Max(maxE[layer], relE)
			maxC[layer] = math.Max(maxC[layer], relC)
		}
	}
	for _, layer := range ScreenLayers {
		t.Logf("layer %d: held-out max rel error  energy %.4f  cycles %.4f  (%d corpora)",
			layer, maxE[layer], maxC[layer], len(seeds))
		if maxE[layer] > ceilE[layer] {
			t.Errorf("layer %d: energy error %.4f exceeds ceiling %.2f", layer, maxE[layer], ceilE[layer])
		}
		if maxC[layer] > ceilC[layer] {
			t.Errorf("layer %d: cycle error %.4f exceeds ceiling %.2f", layer, maxC[layer], ceilC[layer])
		}
	}

	// The fitted (in-sample) band itself must be finite and recorded:
	// the experiment appendix quotes it.
	m, err := ScreenModel()
	if err != nil {
		t.Fatal(err)
	}
	for _, layer := range ScreenLayers {
		var eMax, cMax float64
		ok := false
		for k, lm := range m.Fits {
			if k.Layer == layer {
				ok = true
				eMax, cMax = max(eMax, lm.EnergyMaxRel), max(cMax, lm.CycleMaxRel)
			}
		}
		if !ok {
			t.Fatalf("screen model has no band for layer %d", layer)
		}
		t.Logf("layer %d: calibrated in-sample band  energy %.4f  cycles %.4f", layer, eMax, cMax)
	}
}

// TestCountCorpusDeterministic: counting the same corpus twice yields
// identical features — the property that makes screening cacheable.
func TestCountCorpusDeterministic(t *testing.T) {
	items := core.RandomCorpus(42, 120, lay)
	a, ca, err := CountCorpus(core.CloneItems(items))
	if err != nil {
		t.Fatal(err)
	}
	b, cb, err := CountCorpus(core.CloneItems(items))
	if err != nil {
		t.Fatal(err)
	}
	if a != b || ca != cb {
		t.Errorf("counting is not deterministic: %+v/%d vs %+v/%d", a, ca, b, cb)
	}
	if a.ReadBeats == 0 || a.WriteBeats == 0 || a.AddrPhases == 0 {
		t.Errorf("corpus features implausibly empty: %+v", a)
	}
}
