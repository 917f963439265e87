package bench

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/fault"
	"repro/internal/gatepower"
)

// withProcs runs f with GOMAXPROCS set to procs and restores it after.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestEachIndexCallsEveryIndexOnce checks that every index in [0, n)
// is called exactly once, for no, one, fewer and more indices than
// workers, at one and two workers.
func TestEachIndexCallsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2} {
		for _, n := range []int{0, 1, procs - 1, procs + 1, 37} {
			withProcs(procs, func() {
				calls := make([]atomic.Int32, n)
				if err := eachIndex(n, func(i int) error {
					calls[i].Add(1)
					return nil
				}); err != nil {
					t.Fatalf("procs %d n %d: %v", procs, n, err)
				}
				for i := range calls {
					if c := calls[i].Load(); c != 1 {
						t.Errorf("procs %d n %d: index %d called %d times", procs, n, i, c)
					}
				}
			})
		}
	}
}

// TestEachIndexRunsConcurrently shows the pool is not a loop in
// disguise: at GOMAXPROCS 2 the first two calls are in flight at once,
// or neither returns.
func TestEachIndexRunsConcurrently(t *testing.T) {
	withProcs(2, func() {
		var entered sync.WaitGroup
		entered.Add(2)
		both := make(chan struct{})
		go func() { entered.Wait(); close(both) }()
		err := eachIndex(2, func(i int) error {
			entered.Done()
			select {
			case <-both:
				return nil
			case <-time.After(10 * time.Second):
				return fmt.Errorf("call %d never saw a second call in flight", i)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestEachIndexReturnsLowestError checks that the error returned is the
// one a sequential loop would stop at, whichever call fails first in
// time, and that every index still runs.
func TestEachIndexReturnsLowestError(t *testing.T) {
	for _, procs := range []int{1, 2} {
		withProcs(procs, func() {
			var ran atomic.Int32
			err := eachIndex(9, func(i int) error {
				ran.Add(1)
				if i == 3 || i == 5 || i == 8 {
					return fmt.Errorf("index %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "index 3" {
				t.Errorf("procs %d: got %v, want index 3", procs, err)
			}
			if ran.Load() != 9 {
				t.Errorf("procs %d: %d calls, want 9", procs, ran.Load())
			}
		})
	}
}

// sequentialCampaign is the oracle the pooled runners are held to: a
// plain loop of the one corpus runner, one run after another.
func sequentialCampaign(layer int, runs []batch.Run, plan fault.Plan, org Organization) ([]CorpusEstimate, error) {
	var char gatepower.CharTable
	if layer > 0 {
		char = CharTable()
	}
	var out []CorpusEstimate
	for _, run := range runs {
		r, err := runCorpus(layer, run.Items, newOrgFaultMap(org, plan), true, char, FaultRetry, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// unshardedCampaign is the batched oracle: one engine over every run.
func unshardedCampaign(layer int, runs []batch.Run, plan fault.Plan, width int, org Organization) ([]CorpusEstimate, error) {
	eng, err := batch.New(orgBatchConfig(layer, width, plan, org))
	if err != nil {
		return nil, err
	}
	res, err := eng.EstimateAll(runs)
	if err != nil {
		return nil, err
	}
	out := make([]CorpusEstimate, len(res))
	for i, r := range res {
		out[i] = CorpusEstimate{Layer: layer, Cycles: r.Cycles, EnergyJ: r.EnergyJ, Errors: r.Errors, Retries: r.Retries}
	}
	return out, nil
}

// TestGoldenPooledCampaignsMatchSequential holds both pooled campaign
// runners to independent oracles, per run and bit for bit: the serial
// runner and the batched runner to a plain sequential runCorpus loop,
// and the batched runner to one unsharded engine over every run. Seven
// runs split unevenly over two shards.
func TestGoldenPooledCampaignsMatchSequential(t *testing.T) {
	const seed, runs, n = 42, 7, 48
	corpus := CampaignRuns(seed, runs, n)
	for _, procs := range []int{1, 2} {
		for _, org := range []Organization{OrgSRAM, OrgNVM} {
			for layer := 0; layer <= 1; layer++ {
				for _, name := range []string{"none", "storm", "grind"} {
					ctx := fmt.Sprintf("procs %d %v layer %d %s", procs, org, layer, name)
					plan := mustPlan(t, name)
					want, err := sequentialCampaign(layer, CloneRuns(corpus), plan, org)
					if err != nil {
						t.Fatalf("%s: sequential oracle: %v", ctx, err)
					}
					if name == "grind" && sumRetries(want) == 0 {
						t.Fatalf("%s: grind produced no retries; the error check is vacuous", ctx)
					}
					withProcs(procs, func() {
						serial, err := CampaignEstimateSerialRunsOrg(layer, CloneRuns(corpus), plan, org)
						if err != nil {
							t.Fatalf("%s: pooled serial: %v", ctx, err)
						}
						campaignMatches(t, ctx+" pooled serial", serial, want)
						for _, width := range []int{1, 3, batch.MaxWidth} {
							batched, err := CampaignEstimateRunsOrg(layer, CloneRuns(corpus), plan, width, org)
							if err != nil {
								t.Fatalf("%s: pooled batched width %d: %v", ctx, width, err)
							}
							one, err := unshardedCampaign(layer, CloneRuns(corpus), plan, width, org)
							if err != nil {
								t.Fatalf("%s: unsharded width %d: %v", ctx, width, err)
							}
							campaignMatches(t, fmt.Sprintf("%s pooled batched width %d vs sequential", ctx, width), batched, want)
							campaignMatches(t, fmt.Sprintf("%s pooled batched width %d vs unsharded", ctx, width), batched, one)
						}
					})
				}
			}
		}
	}
}

func campaignMatches(t *testing.T, ctx string, got, want []CorpusEstimate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		estimatesEqual(t, fmt.Sprintf("%s run %d", ctx, i), got[i], want[i])
	}
}

func sumRetries(ests []CorpusEstimate) (n int) {
	for _, e := range ests {
		n += e.Retries
	}
	return n
}

// TestPooledCampaignErrors checks the runners' error contract on a
// campaign whose runs 1 and 3 cannot complete (a stimulus held back
// past the cycle limit): both runners fail without results, the serial
// runner with the sequential loop's error and the batched runner with
// the unsharded engine's, which names run 1 by its campaign index. The
// batched runner still refuses an invalid width before running
// anything, even with no runs.
func TestPooledCampaignErrors(t *testing.T) {
	const stuck = 20_000_000
	corpus := CampaignRuns(42, 5, 16)
	for _, i := range []int{1, 3} {
		corpus[i].Items[0].NotBefore = stuck
	}
	want, wantErr := sequentialCampaign(1, CloneRuns(corpus), fault.Plan{}, OrgSRAM)
	if wantErr == nil || want != nil {
		t.Fatalf("sequential oracle: got %v, %v; want a stuck-run error", want, wantErr)
	}
	_, oneErr := unshardedCampaign(1, CloneRuns(corpus), fault.Plan{}, batch.MaxWidth, OrgSRAM)
	if oneErr == nil || !strings.Contains(oneErr.Error(), "run 1 ") {
		t.Fatalf("unsharded engine: got %v, want run 1 named as stuck", oneErr)
	}
	for _, procs := range []int{1, 2} {
		withProcs(procs, func() {
			got, err := CampaignEstimateSerialRunsOrg(1, CloneRuns(corpus), fault.Plan{}, OrgSRAM)
			if got != nil || err == nil || err.Error() != wantErr.Error() {
				t.Errorf("procs %d serial: got %v, %v; want nil, %v", procs, got, err, wantErr)
			}
			got, err = CampaignEstimateRunsOrg(1, CloneRuns(corpus), fault.Plan{}, batch.MaxWidth, OrgSRAM)
			if got != nil || err == nil || err.Error() != oneErr.Error() {
				t.Errorf("procs %d batched: got %v, %v; want nil, %v", procs, got, err, oneErr)
			}
			for _, runs := range [][]batch.Run{nil, CampaignRuns(42, 3, 4)} {
				_, err = CampaignEstimateRunsOrg(1, runs, fault.Plan{}, batch.MaxWidth+1, OrgSRAM)
				_, want := batch.New(orgBatchConfig(1, batch.MaxWidth+1, fault.Plan{}, OrgSRAM))
				if err == nil || want == nil || err.Error() != want.Error() {
					t.Errorf("procs %d, %d runs, width %d: got %v, want %v", procs, len(runs), batch.MaxWidth+1, err, want)
				}
			}
		})
	}
}
