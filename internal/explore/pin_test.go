package explore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/javacard"
	"repro/internal/journal"
	"repro/internal/platform"
	"repro/internal/tear"
)

// pinConfigs lists one configuration of every run kind on
// stack-churn/halfword/near: clean and faulted at every layer, both
// arbitration policies at every layer (clean and faulted), and every
// tear plan × journal strategy at both timed layers.
func pinConfigs() []Config {
	var cfgs []Config
	add := func(l int, f, a, t, j string) {
		cfgs = append(cfgs, Config{Layer: l, Org: javacard.OrgHalf, AddrMap: "near", Fault: f, Arb: a, Tear: t, Journal: j})
	}
	for _, l := range SweepLayers {
		add(l, "", "", "", "")
		add(l, "none", "", "", "")
		add(l, "storm", "", "", "")
		for _, a := range ArbPolicies {
			add(l, "", a, "", "")
		}
		add(l, "flaky", "rr", "", "")
	}
	for _, l := range []int{1, 2} {
		for _, t := range tear.Names {
			for _, j := range journal.Names {
				if t == "none" && j == "none" {
					continue
				}
				add(l, "", "", t, j)
			}
		}
		add(l, "flaky", "", "tear-mid", "word-eager")
	}
	return cfgs
}

// writeResult folds every field of r into h, energies as IEEE-754 bit
// patterns, the metrics snapshot (when present) in full.
func writeResult(h hash.Hash, r Result) {
	fmt.Fprintf(h, "%s|%s|%q|%q|%q|%q|%d|%x|%d|%d|%d|%t|%d|%x\n",
		r.Config, r.Workload, r.Fault, r.Arb, r.Tear, r.Journal, r.Cycles, math.Float64bits(r.BusEnergyJ),
		r.Transactions, r.Retries, r.Steps, r.Torn, r.CutCycle, math.Float64bits(r.RecoveryJ))
	if m := r.Metrics; m != nil {
		fmt.Fprintf(h, "metrics %x %x", math.Float64bits(m.TotalEnergyJ), math.Float64bits(m.UnattributedJ))
		for _, e := range m.EnergyJ {
			fmt.Fprintf(h, " %x", math.Float64bits(e))
		}
		fmt.Fprintf(h, "\n%+v\n", *m)
	}
}

// TestRunKindsPinned pins the results of every run kind, unmetered
// (Run) and metered (SweepOpts.Metrics), to a digest of the bytes the
// harness produced before its run bodies were folded into one system
// builder, less the metrics snapshot's since-deleted Spans field. Any
// moved cycle, energy bit or metrics counter fails it.
func TestRunKindsPinned(t *testing.T) {
	char := platform.DefaultCharTable()
	h := sha256.New()
	for _, cfg := range pinConfigs() {
		r, err := Run(cfg, churn(), char)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		writeResult(h, r)
		one := func(s string) []string { return []string{s} }
		opts := SweepOpts{Workers: 1, Metrics: true, Faults: one(cfg.Fault), Arbs: one(cfg.Arb),
			Tears: one(cfg.Tear), Journals: one(cfg.Journal)}
		res, err := SweepWith(opts, []int{cfg.Layer}, []javacard.Organization{cfg.Org},
			[]string{cfg.AddrMap}, []javacard.Workload{churn()})
		if err != nil || len(res) != 1 || res[0].Metrics == nil {
			t.Fatalf("%v metered: %d results, %v", cfg, len(res), err)
		}
		writeResult(h, res[0])
	}
	const want = "89ef4b7626022b3ef689808f6a940e7428a6c0f6cbbaf169d4325b45ba540884"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("run-kind digest %s, want %s", got, want)
	}
}
