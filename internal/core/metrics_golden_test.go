package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/metrics"
)

// The observability layer must be a pure observer: attaching a fully
// loaded registry (counters and energy attribution) to every hook point
// cannot change a single byte of the golden capture — not a cycle, not
// a timing field, not the last bit of an energy figure.

func compareCaptures(t *testing.T, plain, metered goldenCapture) {
	t.Helper()
	if !plain.done || !metered.done {
		t.Fatalf("incomplete run: plain=%v metered=%v", plain.done, metered.done)
	}
	if plain.cycles != metered.cycles {
		t.Errorf("cycles: plain %d, metered %d", plain.cycles, metered.cycles)
	}
	if plain.errors != metered.errors {
		t.Errorf("errors: plain %d, metered %d", plain.errors, metered.errors)
	}
	if plain.retries != metered.retries {
		t.Errorf("retries: plain %d, metered %d", plain.retries, metered.retries)
	}
	if plain.timing != metered.timing {
		t.Errorf("transaction timing diverged:\nplain:\n%s\nmetered:\n%s", plain.timing, metered.timing)
	}
	if plain.energy != metered.energy {
		t.Errorf("energy bits diverged:\nplain:   %s\nmetered: %s", plain.energy, metered.energy)
	}
	if plain.trace != metered.trace {
		t.Errorf("trace bytes diverged")
	}
	if plain.stats != metered.stats {
		t.Errorf("bus stats diverged:\nplain:   %s\nmetered: %s", plain.stats, metered.stats)
	}
	if plain.skipped != metered.skipped {
		t.Errorf("skipped cycles: plain %d, metered %d", plain.skipped, metered.skipped)
	}
}

// TestGoldenMetricsNeutral compares metrics-off and metrics-on runs of
// the full corpus matrix at every layer, in the optimized mode the
// tools use.
func TestGoldenMetricsNeutral(t *testing.T) {
	char := characterize(t)
	for name, gc := range goldenCorpora() {
		for layer := 0; layer <= 2; layer++ {
			t.Run(fmt.Sprintf("%s/layer%d", name, layer), func(t *testing.T) {
				plain := goldenRunOn(t, layer, core.CloneItems(gc.items), char, gc.mp, core.RetryPolicy{})
				reg := metrics.New(fmt.Sprintf("L%d", layer))
				metered := goldenRunMetered(t, layer, core.CloneItems(gc.items), char,
					gc.mp, core.RetryPolicy{}, reg)
				compareCaptures(t, plain, metered)

				// The registry must actually have observed the run, or the
				// comparison above proves nothing.
				snap := reg.Snapshot()
				if snap.Completed == 0 {
					t.Fatal("registry saw no completed transaction")
				}
				if snap.TotalEnergyJ == 0 {
					t.Fatal("registry attributed no energy")
				}
			})
		}
	}
}

// TestGoldenMetricsNeutralReference repeats the neutrality check with
// the reference path selected, so the metrics hooks are also proven
// inert on the every-cycle-executed configuration.
func TestGoldenMetricsNeutralReference(t *testing.T) {
	char := characterize(t)
	items := core.VerificationCorpus(lay)
	for layer := 0; layer <= 2; layer++ {
		t.Run(fmt.Sprintf("layer%d", layer), func(t *testing.T) {
			withReference(t, func() {
				plain := goldenRun(t, layer, core.CloneItems(items), char)
				reg := metrics.New(fmt.Sprintf("L%d", layer))
				metered := goldenRunMetered(t, layer, core.CloneItems(items), char,
					testMap, core.RetryPolicy{}, reg)
				compareCaptures(t, plain, metered)
			})
		})
	}
}

// TestGoldenMetricsNeutralFault repeats the neutrality check under a
// fault plan with retries, covering the error-path hooks (errored
// retirements, retry counters, fault counters).
func TestGoldenMetricsNeutralFault(t *testing.T) {
	char := characterize(t)
	base := disjointCorpus(t)
	for planName, plan := range goldenFaultPlans(t, base) {
		plan := plan
		for layer := 0; layer <= 2; layer++ {
			t.Run(fmt.Sprintf("%s/layer%d", planName, layer), func(t *testing.T) {
				mp := func() *ecbus.Map { return faultMap(plan) }
				plain := goldenRunOn(t, layer, core.CloneItems(base), char, mp, eqRetry)
				reg := metrics.New(fmt.Sprintf("L%d", layer))
				metered := goldenRunMetered(t, layer, core.CloneItems(base), char, mp, eqRetry, reg)
				compareCaptures(t, plain, metered)
				if plain.errors == 0 && plain.retries == 0 {
					t.Fatal("plan injected nothing — error-path neutrality not exercised")
				}
			})
		}
	}
}
