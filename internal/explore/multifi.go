package explore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/calib"
	"repro/internal/javacard"
	"repro/internal/metrics"
)

// Fidelity selects how a sweep spends its time across the model
// hierarchy.
type Fidelity string

// Fidelity modes. Exhaustive is the historical behaviour: every
// configuration evaluated at its requested layer. Screen evaluates
// everything with the calibrated analytic model only (microseconds per
// configuration, predictions not exact numbers). Confirm screens the
// full space, prunes configurations that certainly cannot reach the
// Pareto frontier, and evaluates only the survivors exactly.
const (
	FidelityExhaustive Fidelity = "exhaustive"
	FidelityScreen     Fidelity = "screen"
	FidelityConfirm    Fidelity = "confirm"
)

// Fidelities lists the valid modes.
var Fidelities = []Fidelity{FidelityExhaustive, FidelityScreen, FidelityConfirm}

// ParseFidelity validates a fidelity name upfront, mirroring
// Axis.Parse: unknown names fail loudly with the vocabulary.
func ParseFidelity(s string) (Fidelity, error) {
	switch Fidelity(s) {
	case FidelityExhaustive, FidelityScreen, FidelityConfirm:
		return Fidelity(s), nil
	case "":
		return FidelityExhaustive, nil
	}
	return "", fmt.Errorf("explore: unknown fidelity %q (valid: exhaustive, screen, confirm)", s)
}

// DefaultSafety is the band inflation applied to the calibrated
// residuals when deriving the pruning ε: predictions are trusted to
// twice the worst relative error observed during calibration.
const DefaultSafety = 2

// MultiFidelityOpts tunes SweepMultiFidelity. The embedded SweepOpts
// applies to the confirmation pass (workers, metrics, streaming,
// faults axis).
type MultiFidelityOpts struct {
	SweepOpts

	// Model is the calibrated analytic model; nil uses DefaultModel()
	// (fitting it on first use if needed).
	Model *calib.Model

	// Safety inflates the calibrated error band into the pruning ε:
	// ε = Safety × (fitted max relative error). <= 0 selects
	// DefaultSafety. The ε is therefore derived from measured
	// residuals, never hand-picked.
	Safety float64

	// Registry, when non-nil, receives the sweep-level screen/confirm
	// attribution: configuration counts and wall-clock nanoseconds per
	// phase.
	Registry *metrics.Registry

	// SkipConfirm stops after the screening phase: Screened carries
	// every prediction with its keep/prune decision, Confirmed stays
	// empty. This is the "screen" fidelity — a reconnaissance pass over
	// a design space too large to confirm.
	SkipConfirm bool
}

// Prediction is one configuration's analytic screening outcome.
type Prediction struct {
	Config
	Workload string
	EnergyJ  float64 // predicted energy at the confirmation layer
	Cycles   float64 // predicted cycles at the confirmation layer
	Kept     bool    // survived ε-pruning (or is exempt) → confirmed
}

// MultiFidelityResult is the outcome of a multi-fidelity sweep, with
// the screened-vs-confirmed accounting first-class so pruning is never
// silent.
type MultiFidelityResult struct {
	// Confirmed holds the exact results of the kept configurations in
	// cross-product order — bit-identical to the same configurations'
	// results under an exhaustive sweep.
	Confirmed []Result

	// Screened holds every enumerated configuration's prediction in
	// cross-product order, including the pruned ones.
	Screened []Prediction

	// ScreenedConfigs counts every enumerated configuration;
	// PrunedConfigs those dropped by ε-domination; ConfirmedConfigs the
	// exact evaluations that completed successfully.
	ScreenedConfigs  int
	PrunedConfigs    int
	ConfirmedConfigs int

	// EpsEnergy / EpsCycles summarize the pruning margins derived from
	// the calibrated error band, per layer: the worst case across the
	// swept organizations (pruning itself uses the tighter per-(layer,
	// organization) bands).
	EpsEnergy map[int]float64
	EpsCycles map[int]float64

	// ScreenTime and ConfirmTime attribute the sweep's wall clock.
	ScreenTime  time.Duration
	ConfirmTime time.Duration
}

// SweepMultiFidelity screens the full cross product with the calibrated
// layer-3 analytic model, prunes configurations that certainly cannot
// reach the per-workload Pareto frontier even under worst-case model
// error, and confirms the survivors exactly at their requested layers.
// See SweepMultiFidelityContext.
func SweepMultiFidelity(opts MultiFidelityOpts, layers []int, orgs []javacard.Organization, maps []string, workloads []javacard.Workload) (MultiFidelityResult, error) {
	return SweepMultiFidelityContext(context.Background(), opts, layers, orgs, maps, workloads)
}

// SweepMultiFidelityContext is the context-aware multi-fidelity sweep.
//
// Soundness of the pruning: a configuration p is dropped only if some
// configuration q in the same workload *certainly* dominates it — the
// upper bounds of q's true energy and cycles (prediction inflated by
// q's layer ε) sit at or below the lower bounds of p's (prediction
// deflated by p's layer ε), strictly on at least one axis. If the
// calibrated error band holds, every true frontier point survives, so
// the confirmed set is a superset of the exhaustive frontier. Layer-3
// configurations and configurations whose screening failed are never
// pruned (confirming them costs microseconds and exactness
// respectively). Partial failures follow the sweep contract: the error
// is the errors.Join of per-configuration failures, alongside the
// results that did complete.
func SweepMultiFidelityContext(ctx context.Context, opts MultiFidelityOpts, layers []int, orgs []javacard.Organization, maps []string, workloads []javacard.Workload) (MultiFidelityResult, error) {
	var out MultiFidelityResult

	for _, l := range layers {
		if err := Valid(Config{Layer: l}); err != nil {
			return out, err
		}
	}
	model := opts.Model
	if model == nil {
		m, err := DefaultModel()
		if err != nil {
			return out, err
		}
		model = m
	}
	safety := opts.Safety
	if safety <= 0 {
		safety = DefaultSafety
	}
	// Pruning margins per (layer, organization, arbitration policy) —
	// the grouped fits carry far tighter bands than any pooled summary,
	// and the soundness argument only needs each configuration judged
	// against its own band. The public per-layer maps keep the worst
	// case for reporting. Faulted contended configurations are exempt
	// from pruning (screenTrusted), so no band is required for them.
	arbsAxis := []string{""}
	for _, a := range opts.Arbs {
		if off(a) != "" {
			arbsAxis = append(arbsAxis, off(a))
		}
	}
	type epsKey struct {
		layer int
		org   javacard.Organization
		arb   string
	}
	epsE := map[epsKey]float64{}
	epsC := map[epsKey]float64{}
	out.EpsEnergy = map[int]float64{}
	out.EpsCycles = map[int]float64{}
	for _, l := range layers {
		target := l
		if l == 3 {
			target = AnalyticTargetLayer
		}
		for _, o := range orgs {
			for _, a := range arbsAxis {
				eE, eC, err := model.Epsilon(target, calibGroup(o, a), safety)
				if err != nil {
					return out, fmt.Errorf("explore: no calibrated band for layer %d group %s: %w", l, calibGroup(o, a), err)
				}
				epsE[epsKey{l, o, a}], epsC[epsKey{l, o, a}] = eE, eC
				out.EpsEnergy[l] = math.Max(out.EpsEnergy[l], eE)
				out.EpsCycles[l] = math.Max(out.EpsCycles[l], eC)
			}
		}
	}

	jobs, prepErrs := enumerateJobs(opts.SweepOpts, layers, orgs, maps, workloads)
	joined := prepErrs
	out.ScreenedConfigs = len(jobs)

	// ---- Screen phase: one counting run per unique traffic shape.
	// The feature vector depends on (workload, org, map, fault) but not
	// on the layer, so the cross product shares count runs across the
	// layer axis — that sharing is what amortizes screening to
	// microseconds per configuration.
	screenStart := time.Now()
	type fres struct {
		x   []float64
		err error
	}
	reps, shapeOf := shapes(jobs)
	featRes := make([]fres, len(reps))
	eachJob(opts.Workers, len(reps), func(s int) {
		j := reps[s]
		fv, _, err := countRun(ctx, j.cfg, j.p)
		if err != nil {
			featRes[s] = fres{err: err}
			return
		}
		featRes[s] = fres{x: fv.Vector()}
	})

	preds := make([]Prediction, len(jobs))
	exempt := make([]bool, len(jobs)) // never prune: layer 3, failed or untrusted screen
	for i, j := range jobs {
		preds[i] = Prediction{Config: j.cfg, Workload: j.p.w.Name}
		fr := featRes[shapeOf[i]]
		if fr.err != nil {
			// Conservative fallback: confirm exactly what could not be
			// screened, and surface the screening failure.
			exempt[i] = true
			joined = append(joined, fmt.Errorf("explore: screen %v/%s: %w", j.cfg, j.p.w.Name, fr.err))
			continue
		}
		target := j.cfg.Layer
		if target == 3 {
			target = AnalyticTargetLayer
		}
		e, c, err := model.Predict(target, calibGroup(j.cfg.Org, j.cfg.Arb), fr.x)
		if err != nil {
			exempt[i] = true
			joined = append(joined, fmt.Errorf("explore: screen %v/%s: %w", j.cfg, j.p.w.Name, err))
			continue
		}
		preds[i].EnergyJ = math.Max(e, 0)
		preds[i].Cycles = math.Max(c, 0)
		// The analytic layer is its own confirmation — keeping it costs
		// one (already cached) counting run. An untrusted prediction is
		// reported but always confirmed exactly.
		exempt[i] = j.cfg.Layer == 3 || !screenTrusted(j.cfg)
	}

	// ---- ε-domination pruning, per workload.
	bounds := func(i int) (loE, upE, loC, upC float64) {
		k := epsKey{jobs[i].cfg.Layer, jobs[i].cfg.Org, off(jobs[i].cfg.Arb)}
		eE, eC := epsE[k], epsC[k]
		loE = preds[i].EnergyJ / (1 + eE)
		loC = preds[i].Cycles / (1 + eC)
		upE, upC = math.Inf(1), math.Inf(1)
		if eE < 1 {
			upE = preds[i].EnergyJ / (1 - eE)
		}
		if eC < 1 {
			upC = preds[i].Cycles / (1 - eC)
		}
		return
	}
	byWorkload := map[string][]int{}
	for i, j := range jobs {
		byWorkload[j.p.w.Name] = append(byWorkload[j.p.w.Name], i)
	}
	for _, group := range byWorkload {
		for _, p := range group {
			if exempt[p] {
				preds[p].Kept = true
				continue
			}
			pLoE, _, pLoC, _ := bounds(p)
			dominated := false
			for _, q := range group {
				if q == p || exempt[q] {
					continue
				}
				_, qUpE, _, qUpC := bounds(q)
				if qUpE <= pLoE && qUpC <= pLoC && (qUpE < pLoE || qUpC < pLoC) {
					dominated = true
					break
				}
			}
			preds[p].Kept = !dominated
		}
	}
	out.Screened = preds
	out.ScreenTime = time.Since(screenStart)
	for i := range preds {
		if !preds[i].Kept {
			out.PrunedConfigs++
		}
	}
	opts.Registry.FidelityScreen(uint64(out.ScreenedConfigs), uint64(out.PrunedConfigs), uint64(out.ScreenTime.Nanoseconds()))
	if opts.SkipConfirm {
		return out, errors.Join(joined...)
	}

	// ---- Confirm phase: exact evaluation of the survivors through the
	// shared worker pool, preserving cross-product order.
	confirmStart := time.Now()
	var confirmJobs []job
	for i, j := range jobs {
		if preds[i].Kept {
			confirmJobs = append(confirmJobs, job{cfg: j.cfg, p: j.p})
		}
	}
	results, errs := runJobs(ctx, opts.SweepOpts, confirmJobs)
	for i := range confirmJobs {
		if errs[i] != nil {
			joined = append(joined, errs[i])
			continue
		}
		out.Confirmed = append(out.Confirmed, results[i])
	}
	out.ConfirmedConfigs = len(out.Confirmed)
	out.ConfirmTime = time.Since(confirmStart)
	opts.Registry.FidelityConfirm(uint64(out.ConfirmedConfigs), uint64(out.ConfirmTime.Nanoseconds()))

	return out, errors.Join(joined...)
}
