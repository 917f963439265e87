package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/fault"
	"repro/internal/rtlbus"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The golden property must hold on the error paths too: with a fault
// plan injecting bus errors, wait storms and retries, the reference path
// (every cycle executed) and the optimized path (idle fast-forward,
// dirty masks) must produce byte-identical captures. At layer 0 the
// energy string includes per-signal rise/fall counts for every wire —
// EB_RBErr and EB_WBErr among them — so an idle-skip that swallowed an
// error edge diverges from the reference and fails the comparison.

func goldenFaultPlans(t *testing.T, items []core.Item) map[string]fault.Plan {
	t.Helper()
	plans := equivalencePlans(t)
	plans["scripted"] = scriptedFor(items)
	return plans
}

func TestGoldenFaultEquivalence(t *testing.T) {
	char := characterize(t)
	base := disjointCorpus(t)
	for planName, plan := range goldenFaultPlans(t, base) {
		plan := plan
		for layer := 0; layer <= 2; layer++ {
			t.Run(fmt.Sprintf("%s/layer%d", planName, layer), func(t *testing.T) {
				mp := func() *ecbus.Map { return faultMap(plan) }
				ref := checkGolden(t, layer, base, char, mp, eqRetry)
				if ref.errors == 0 && ref.retries == 0 {
					t.Fatal("plan injected nothing — fault golden property not exercised")
				}
			})
		}
	}
}

// TestGoldenFaultIdleSkipActive guards against a vacuous equivalence:
// the optimized path must still fast-forward somewhere on the fault
// corpus, proving the comparison above pits real skipping against the
// error-wire edges rather than two cycle-by-cycle runs.
func TestGoldenFaultIdleSkipActive(t *testing.T) {
	char := characterize(t)
	base := disjointCorpus(t)
	for layer := 0; layer <= 2; layer++ {
		var skipped uint64
		for _, plan := range goldenFaultPlans(t, base) {
			plan := plan
			mp := func() *ecbus.Map { return faultMap(plan) }
			c := goldenRunOn(t, layer, core.CloneItems(base), char, mp, eqRetry)
			skipped += c.skipped
		}
		if skipped == 0 {
			t.Errorf("layer %d: no cycles skipped under any fault plan", layer)
		}
	}
}

// TestGoldenVCDFaultEquivalence dumps the layer-0 wire trace under the
// scripted fault plan in both modes and requires identical VCDs that
// actually contain rising edges on both error wires.
func TestGoldenVCDFaultEquivalence(t *testing.T) {
	items := disjointCorpus(t)
	plan := scriptedFor(items)
	run := func() string {
		k := sim.New(0)
		b := rtlbus.New(k, faultMap(plan))
		var sb strings.Builder
		v := trace.NewVCD(&sb)
		k.At(sim.Post, "vcd", func(uint64) { v.Observe(b.Wires()) })
		m := core.NewScriptMaster(k, b, core.CloneItems(items))
		m.Retry = eqRetry
		k.RunUntil(1_000_000, m.Done)
		if !m.Done() {
			t.Fatal("run incomplete")
		}
		if m.Errors()+m.TotalRetries() == 0 {
			t.Fatal("scripted plan injected nothing")
		}
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	var ref string
	withReference(t, func() { ref = run() })
	opt := run()
	if ref != opt {
		t.Fatal("VCD dumps differ between reference and optimized modes under fault plan")
	}
	for _, id := range []ecbus.SignalID{ecbus.SigRBErr, ecbus.SigWBErr} {
		// The VCD identifier code is string(rune('!'+id)); a "1<code>"
		// line is a rising edge on that wire.
		edge := "1" + string(rune('!'+int(id))) + "\n"
		if !strings.Contains(ref, edge) {
			t.Errorf("VCD dump has no rising edge on %s", id)
		}
	}
}
