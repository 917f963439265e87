package bench

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
)

// estimatesEqual asserts bit-identity between two estimates.
func estimatesEqual(t *testing.T, ctx string, got, want CorpusEstimate) {
	t.Helper()
	if got.Cycles != want.Cycles || got.Errors != want.Errors || got.Retries != want.Retries {
		t.Fatalf("%s: got %+v, want %+v", ctx, got, want)
	}
	if math.Float64bits(got.EnergyJ) != math.Float64bits(want.EnergyJ) {
		t.Fatalf("%s: energy bits %016x != %016x", ctx,
			math.Float64bits(got.EnergyJ), math.Float64bits(want.EnergyJ))
	}
}

// TestGoldenRunCorpusEstimateMatchesReference pins the routed
// RunCorpusEstimate (batched engine at width 1) against both the direct
// kernel harness and the reference-mode run, bit for bit, for every
// corpus, batched layer and named fault plan.
func TestGoldenRunCorpusEstimateMatchesReference(t *testing.T) {
	plans := append([]string{""}, fault.Names...)
	for _, corpus := range Corpora {
		for layer := 0; layer <= 1; layer++ {
			for _, name := range plans {
				var plan fault.Plan
				if name != "" {
					var ok bool
					plan, ok = fault.Named(name)
					if !ok {
						t.Fatalf("unknown plan %q", name)
					}
				}
				got, err := RunCorpusEstimate(layer, corpus, 64, plan)
				if err != nil {
					t.Fatalf("routed estimate: %v", err)
				}

				items, err := CorpusItems(corpus, 64)
				if err != nil {
					t.Fatal(err)
				}
				want, err := runCorpus(layer, items, newOrgFaultMap(OrgSRAM, plan), true, CharTable(), FaultRetry, nil)
				if err != nil {
					t.Fatalf("kernel harness: %v", err)
				}
				ctx := corpus + "/" + name
				estimatesEqual(t, "routed vs kernel "+ctx, got, want)

				core.SetReference(true)
				ref, err := RunCorpusEstimate(layer, corpus, 64, plan)
				core.SetReference(false)
				if err != nil {
					t.Fatalf("reference estimate: %v", err)
				}
				estimatesEqual(t, "routed vs reference "+ctx, got, ref)
			}
		}
	}
}

// TestGoldenCampaignBatchedMatchesSerial pins the batched campaign
// against the serial campaign across lane widths, per run and bit for
// bit — the width-invariance the /v1/batch cache key relies on.
func TestGoldenCampaignBatchedMatchesSerial(t *testing.T) {
	const seed, runs, n = 42, 12, 48
	plans := []fault.Plan{{}, mustPlan(t, "grind")}
	for layer := 0; layer <= 1; layer++ {
		for pi, plan := range plans {
			serial, err := CampaignEstimateSerialRunsOrg(layer, CampaignRuns(seed, runs, n), plan, OrgSRAM)
			if err != nil {
				t.Fatalf("serial campaign: %v", err)
			}
			for _, width := range []int{1, 5, 12, 64} {
				batched, err := CampaignEstimate(layer, seed, runs, n, plan, width)
				if err != nil {
					t.Fatalf("batched campaign width %d: %v", width, err)
				}
				if len(batched) != len(serial) {
					t.Fatalf("width %d: %d results, want %d", width, len(batched), len(serial))
				}
				for i := range serial {
					estimatesEqual(t, "campaign run", batched[i], serial[i])
				}
				if !CampaignEqual(serial, batched) {
					t.Fatalf("layer %d plan %d width %d: CampaignEqual disagrees with per-run check",
						layer, pi, width)
				}
			}
		}
	}
}

func mustPlan(t *testing.T, name string) fault.Plan {
	t.Helper()
	plan, ok := fault.Named(name)
	if !ok {
		t.Fatalf("unknown plan %q", name)
	}
	return plan
}

// TestGoldenNVMCampaignBatchedMatchesSerial pins the NVM-organization
// campaign — the wait-state-dominated workload of the batched
// before/after table, where lanes sleep through long programming waits —
// against its serial reference, clean and under faults, per run and bit
// for bit.
func TestGoldenNVMCampaignBatchedMatchesSerial(t *testing.T) {
	const seed, runs, n = 42, 8, 64
	plans := []fault.Plan{{}, mustPlan(t, "grind")}
	for layer := 0; layer <= 1; layer++ {
		for pi, plan := range plans {
			corpus := CampaignRuns(seed, runs, n)
			serial, err := CampaignEstimateSerialRunsOrg(layer, CloneRuns(corpus), plan, OrgNVM)
			if err != nil {
				t.Fatalf("serial NVM campaign: %v", err)
			}
			for _, width := range []int{1, 3, 8, 64} {
				batched, err := CampaignEstimateRunsOrg(layer, CloneRuns(corpus), plan, width, OrgNVM)
				if err != nil {
					t.Fatalf("batched NVM campaign width %d: %v", width, err)
				}
				if !CampaignEqual(serial, batched) {
					t.Fatalf("layer %d plan %d width %d: NVM campaign diverged from serial",
						layer, pi, width)
				}
			}
		}
	}
}
