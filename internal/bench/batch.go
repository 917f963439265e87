package bench

// Batched whole-corpus estimation: campaign construction, the batched
// and serial campaign runners, and the ecbench before/after table. A
// campaign is R independent pseudo-random corpus runs over the
// reference layout — the workload shape of the serving layer, where
// many users' stimuli are estimated against one card organization.

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/fault"
	"repro/internal/gatepower"
	"repro/internal/logic"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/platform"
)

// Organization selects a campaign's card memory organization — the
// paper's Fig.-1 platform admits several data-memory technologies for
// the same bus, and the estimation service prices stimuli against a
// user-selected one.
type Organization int

const (
	// OrgSRAM is the Table-3 reference map: both regions RAM-class.
	OrgSRAM Organization = iota
	// OrgNVM keeps the fast region RAM-class and gives the slow region
	// NVM-class timing: EEPROM-style address/read waits plus a static
	// per-word programming wait on writes (mem.NewNVRAM). Conservative
	// against real parts — EEPROM programming runs thousands of bus
	// cycles (mem.EEPROM models 32 per word at bus scale) — it is the
	// wait-state-dominated workload smart-card estimation spends most
	// wall-clock on.
	OrgNVM
)

// String returns the organization's table label.
func (o Organization) String() string {
	if o == OrgNVM {
		return "NVM"
	}
	return "SRAM"
}

// NVMWriteWait is the per-word programming wait of the NVM
// organization's data memory.
const NVMWriteWait = 256

// newOrgFaultMap builds the fault-wrapped address map of an
// organization.
func newOrgFaultMap(org Organization, plan fault.Plan) *ecbus.Map {
	if org == OrgNVM {
		return faultMap(plan, nil,
			mem.NewRAM("fast", lay.Fast, 0x1000, 0, 0),
			mem.NewNVRAM("nvm", lay.Slow, 0x1000, 1, 2, NVMWriteWait))
	}
	return faultMap(plan, nil, platform.RefMap().Slaves()...)
}

// faultMap maps the slaves, each wrapped in a fresh injector applying
// plan and reporting to reg (nil: no metrics).
func faultMap(plan fault.Plan, reg *metrics.Registry, slaves ...ecbus.Slave) *ecbus.Map {
	wrapped := make([]ecbus.Slave, len(slaves))
	for i, s := range slaves {
		wrapped[i] = fault.Wrap(s, plan).AttachMetrics(reg)
	}
	return ecbus.MustMap(wrapped...)
}

// orgBatchConfig assembles the engine configuration matching the serial
// fault harness: same fault-wrapped maps, same retry policy, same
// energy models — the premise of the golden gate.
func orgBatchConfig(layer, width int, plan fault.Plan, org Organization) batch.Config {
	cfg := batch.Config{
		Layer:  layer,
		Width:  width,
		NewMap: func() *ecbus.Map { return newOrgFaultMap(org, plan) },
		Retry:  FaultRetry,
	}
	if layer == 0 {
		cfg.Gate = gatepower.DefaultConfig()
	} else {
		cfg.Char = CharTable()
	}
	return cfg
}

// CampaignRuns builds the deterministic campaign corpus: runs
// independent random stimuli of n transactions each, with per-run seeds
// derived from the campaign seed by mixing so the streams are
// uncorrelated but fully reproducible.
func CampaignRuns(seed uint64, runs, n int) []batch.Run {
	out := make([]batch.Run, runs)
	for i := range out {
		out[i] = batch.Run{Items: core.RandomCorpus(logic.Mix64(seed+uint64(i)), n, lay)}
	}
	return out
}

// CloneRuns deep-copies a campaign corpus. Estimation consumes its
// stimuli (result fields are written into the transactions), so timing
// harnesses clone a pristine corpus per pass instead of regenerating.
func CloneRuns(runs []batch.Run) []batch.Run {
	out := make([]batch.Run, len(runs))
	for i, r := range runs {
		out[i] = batch.Run{Items: core.CloneItems(r.Items)}
	}
	return out
}

// CampaignEstimateRunsOrg pushes a pre-built campaign corpus through
// the batched engine at the given lane width against a memory
// organization — the estimation step proper, with corpus construction
// factored out so timing harnesses measure the engine, not the stimulus
// generator. The runs are dealt round-robin to p = min(GOMAXPROCS,
// runs) engines (run i to shard i mod p), each width lanes wide and run
// on its own goroutine. Per-run results are independent of the width
// and of lane neighbours (the engine's golden gate), so any width and
// any shard count return the same bits.
func CampaignEstimateRunsOrg(layer int, runs []batch.Run, plan fault.Plan, width int, org Organization) ([]CorpusEstimate, error) {
	// Every engine is built first, so a bad width or layer is refused
	// before anything runs, even for an empty campaign.
	p := max(1, min(runtime.GOMAXPROCS(0), len(runs)))
	engs := make([]*batch.Engine, p)
	for s := range engs {
		eng, err := batch.New(orgBatchConfig(layer, width, plan, org))
		if err != nil {
			return nil, err
		}
		engs[s] = eng
	}
	out := make([]CorpusEstimate, len(runs))
	err := eachIndex(p, func(s int) error {
		var shard []batch.Run
		for i := s; i < len(runs); i += p {
			shard = append(shard, runs[i])
		}
		res, err := engs[s].EstimateAll(shard)
		var inc *batch.IncompleteError
		if errors.As(err, &inc) {
			inc.Run = s + inc.Run*p // the shard's run index back to the campaign's
		}
		for j, r := range res {
			out[s+j*p] = CorpusEstimate{Layer: layer, Cycles: r.Cycles, EnergyJ: r.EnergyJ, Errors: r.Errors, Retries: r.Retries}
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CampaignEstimate is CampaignEstimateRunsOrg over the deterministic
// SRAM campaign corpus for (seed, runs, n).
func CampaignEstimate(layer int, seed uint64, runs, n int, plan fault.Plan, width int) ([]CorpusEstimate, error) {
	return CampaignEstimateRunsOrg(layer, CampaignRuns(seed, runs, n), plan, width, OrgSRAM)
}

// CampaignEstimateSerialRunsOrg is the serial reference for a pre-built
// campaign against an explicit memory organization: each run on its own
// kernel, exactly the pre-batching path, with the independent runs
// spread over GOMAXPROCS goroutines.
func CampaignEstimateSerialRunsOrg(layer int, runs []batch.Run, plan fault.Plan, org Organization) ([]CorpusEstimate, error) {
	var char gatepower.CharTable
	if layer > 0 {
		char = CharTable()
	}
	out := make([]CorpusEstimate, len(runs))
	err := eachIndex(len(runs), func(i int) error {
		var err error
		out[i], err = runCorpus(layer, runs[i].Items, newOrgFaultMap(org, plan), true, char, FaultRetry, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// eachIndex calls f(i) for every i in [0, n) on min(GOMAXPROCS, n)
// goroutines, each taking the next index from a shared counter, and
// returns the error of the lowest i that failed — the error a
// sequential loop over independent calls would have stopped at. f must
// be safe to call concurrently for distinct i.
func eachIndex(n int, f func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// CampaignEqual reports whether two campaign results are bit-identical,
// run for run — the check the CLI tables print alongside the timings.
func CampaignEqual(a, b []CorpusEstimate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Cycles != b[i].Cycles || a[i].Errors != b[i].Errors || a[i].Retries != b[i].Retries ||
			math.Float64bits(a[i].EnergyJ) != math.Float64bits(b[i].EnergyJ) {
			return false
		}
	}
	return true
}

// BatchCampaignRuns is the campaign size of the CLI batch tables; the
// CLIs cap the requested lane width here rather than truncating runs.
const BatchCampaignRuns = 48

// BatchTable measures the serial path against the batched engine on a
// whole-corpus campaign — the Table-3-style before/after of batching —
// against both memory organizations, and verifies per-run bit-equality
// between the two.
func BatchTable(width int) (string, error) {
	const n, seed = 256, 42
	runs := BatchCampaignRuns
	var sb strings.Builder
	fmt.Fprintf(&sb, "Batched corpus estimation: %d runs x %d transactions, lane width %d\n",
		runs, n, width)
	fmt.Fprintf(&sb, "%-24s %12s %13s %9s %7s\n", "Model", "serial[ms]", "batched[ms]", "speedup", "equal")
	names := []string{"Gate-level model", "Layer one model"}
	corpus := CampaignRuns(seed, runs, n)
	for _, org := range []Organization{OrgSRAM, OrgNVM} {
		for layer := 0; layer <= 1; layer++ {
			// Both passes consume a pristine clone of the same corpus,
			// built outside the timed window: the comparison times
			// estimation, not stimulus generation (identical on both
			// sides by construction).
			serialRuns, batchedRuns := CloneRuns(corpus), CloneRuns(corpus)
			t0 := time.Now()
			serial, err := CampaignEstimateSerialRunsOrg(layer, serialRuns, fault.Plan{}, org)
			if err != nil {
				return "", err
			}
			serMs := float64(time.Since(t0).Microseconds()) / 1e3
			t1 := time.Now()
			batched, err := CampaignEstimateRunsOrg(layer, batchedRuns, fault.Plan{}, width, org)
			if err != nil {
				return "", err
			}
			batMs := float64(time.Since(t1).Microseconds()) / 1e3
			if !CampaignEqual(serial, batched) {
				return "", fmt.Errorf("bench: layer-%d %v batched campaign diverged from serial", layer, org)
			}
			fmt.Fprintf(&sb, "%-24s %12.2f %13.2f %8.1fx %7v\n",
				names[layer]+" ("+org.String()+")", serMs, batMs, serMs/batMs, true)
		}
	}
	return sb.String(), nil
}

// CampaignTable runs a fault-plan campaign through the batched engine
// and renders one summary row per plan — jcexplore's batched corpus
// estimation under its fault axis.
func CampaignTable(layer, width int, planNames []string) (string, error) {
	if len(planNames) == 0 {
		planNames = []string{"none"}
	}
	const n, seed = 256, 42
	runs := BatchCampaignRuns
	var sb strings.Builder
	fmt.Fprintf(&sb, "Batched campaign: layer %d, %d runs x %d transactions, lane width %d\n",
		layer, runs, n, width)
	fmt.Fprintf(&sb, "%-8s %10s %12s %14s %8s %8s %9s\n",
		"Plan", "wall[ms]", "cycles", "energy[pJ]", "errors", "retries", "kT/s")
	for _, name := range planNames {
		plan, ok := fault.Named(name)
		if !ok {
			return "", fmt.Errorf("bench: unknown fault plan %q (have %v)", name, fault.Names)
		}
		t0 := time.Now()
		ests, err := CampaignEstimate(layer, seed, runs, n, plan, width)
		if err != nil {
			return "", err
		}
		wall := time.Since(t0)
		var cycles uint64
		var energy float64
		var errors, retries int
		for _, e := range ests {
			cycles += e.Cycles
			energy += e.EnergyJ
			errors += e.Errors
			retries += e.Retries
		}
		fmt.Fprintf(&sb, "%-8s %10.2f %12d %14.1f %8d %8d %9.0f\n",
			name, float64(wall.Microseconds())/1e3, cycles, energy*1e12, errors, retries,
			float64(runs*n)/wall.Seconds()/1e3)
	}
	return sb.String(), nil
}
