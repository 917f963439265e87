package explore

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/calib"
	"repro/internal/fault"
	"repro/internal/javacard"
	"repro/internal/platform"
	"repro/internal/tlm3"
)

// CalibrationFaults is the default fault axis of a calibration run: the
// full named plan vocabulary (clean included), so the fitted band
// covers every fault plan a sweep can ask the model to screen. A model
// calibrated on a narrower axis would carry an optimistically small
// residual band and could prune true frontier points of the plans it
// never saw.
var CalibrationFaults = fault.Names

// calibGroup is the calibration grouping: one independent regression
// per SFR organization, and per (organization, arbitration policy) for
// multi-master configurations. The organization changes how
// transactions are shaped (beat widths, burst framing, staging), i.e.
// the per-event pricing itself — exactly what a single linear
// coefficient set cannot absorb; an arbitration policy changes the
// traffic mix (three masters' interleaved streams plus the grant
// wires' own energy), so contended runs get their own coefficients.
// Single-master groups keep the historical org-only key, which keeps
// existing calibrations and content hashes stable.
func calibGroup(org javacard.Organization, arbPolicy string) string {
	if off(arbPolicy) == "" {
		return org.String()
	}
	return org.String() + "+arb:" + arbPolicy
}

// CalibrationArbs is the default arbitration axis of a calibration
// run: both arbiter policies, each calibrated clean-only (the fault ×
// arbitration cross product is exempt from ε-pruning, so its band is
// never consulted — see SweepMultiFidelityContext).
var CalibrationArbs = ArbPolicies

// Calibrate fits the layer-3 analytic model: it measures every
// configuration of the given axes exactly at the timed layers, counts
// each configuration's traffic once with the layer-3 counting bus, and
// regresses per-event-count coefficients per (layer, group) via
// deterministic least squares — one group per organization, plus one
// per (organization, arbitration policy) when opts.Arbs names policies.
// The faults axis comes from opts.Faults, defaulting to
// CalibrationFaults; arbitrated groups are measured on clean runs only.
//
// The timed runs of both axes and one counting run per unique traffic
// shape form one job list on the sweep pool. Every output lands in its
// own slot, so the samples reach the fit in cross-product order
// whatever the worker count.
//
// Calibration is strict about failures: a configuration that cannot be
// measured or counted poisons the fit, so any failed or cancelled job
// aborts instead of fitting on a partial design.
func Calibrate(ctx context.Context, opts SweepOpts, layers []int, orgs []javacard.Organization, maps []string, workloads []javacard.Workload) (calib.Model, error) {
	for _, l := range layers {
		if l == 3 {
			return calib.Model{}, fmt.Errorf("explore: cannot calibrate against layer 3 (it is the model under calibration)")
		}
	}
	sweepOpts := opts
	sweepOpts.Arbs = nil
	if len(sweepOpts.Faults) == 0 {
		sweepOpts.Faults = CalibrationFaults
	}
	timed, prepErrs := enumerateJobs(sweepOpts, layers, orgs, maps, workloads)

	// The arbitrated groups get their own clean-only jobs: the contended
	// system's traffic (and the grant wires' energy) is what their
	// coefficients must price.
	var arbPolicies []string
	for _, a := range opts.Arbs {
		if off(a) != "" {
			arbPolicies = append(arbPolicies, off(a))
		}
	}
	if len(arbPolicies) > 0 {
		arbOpts := sweepOpts
		arbOpts.Faults = []string{""}
		arbOpts.Arbs = arbPolicies
		arbJobs, errs := enumerateJobs(arbOpts, layers, orgs, maps, workloads)
		timed, prepErrs = append(timed, arbJobs...), append(prepErrs, errs...)
	}
	if len(prepErrs) > 0 {
		return calib.Model{}, fmt.Errorf("explore: calibration: %w", errors.Join(prepErrs...))
	}

	// The feature vector does not depend on the measured layer, so the
	// timed jobs share one counting run per traffic shape.
	reps, shapeOf := shapes(timed)
	char := platform.DefaultCharTable()
	results := make([]Result, len(timed))
	feats := make([][]float64, len(reps))
	errs := make([]error, len(timed)+len(reps))
	eachJob(opts.Workers, len(errs), func(i int) {
		if i < len(timed) {
			results[i], errs[i] = runJob(ctx, timed[i], char, false)
			return
		}
		j := reps[i-len(timed)]
		fv, _, err := countRun(ctx, j.cfg, j.p)
		if err != nil {
			errs[i] = fmt.Errorf("explore: calibration count %v/%s: %w", j.cfg, j.p.w.Name, err)
			return
		}
		feats[i-len(timed)] = fv.Vector()
	})
	if err := errors.Join(errs...); err != nil {
		return calib.Model{}, fmt.Errorf("explore: calibration: %w", err)
	}

	samples := make([]calib.Sample, len(timed))
	for i, r := range results {
		samples[i] = calib.Sample{
			Layer:   r.Layer,
			Group:   calibGroup(r.Org, r.Arb),
			Key:     r.Config.String() + "|" + r.Workload,
			X:       feats[shapeOf[i]],
			EnergyJ: r.BusEnergyJ,
			Cycles:  float64(r.Cycles),
		}
	}
	m, err := calib.Fit(tlm3.FeatureNames(), samples)
	if err != nil {
		return calib.Model{}, fmt.Errorf("explore: calibration fit: %w", err)
	}
	return m, nil
}

var (
	defaultModelOnce sync.Once
	defaultModelVal  calib.Model
	defaultModelErr  error
)

// DefaultModel returns the memoized calibration over the full default
// design space: timed layers 1 and 2, every SFR organization, every
// named address map, the standard workloads, the full fault-plan
// vocabulary, and both arbitration policies (clean-only). The first
// caller pays the calibration: 1,152 timed runs and 576 counting runs
// in one pass on the sweep pool, about 0.4 s on a 2-vCPU Xeon host
// (BenchmarkCalibrateCold). Everyone after shares the fitted value.
func DefaultModel() (*calib.Model, error) {
	defaultModelOnce.Do(func() {
		defaultModelVal, defaultModelErr = calibrateDefault()
	})
	if defaultModelErr != nil {
		return nil, defaultModelErr
	}
	return &defaultModelVal, nil
}

// calibrateDefault fits the model DefaultModel memoizes.
func calibrateDefault() (calib.Model, error) {
	return Calibrate(context.Background(), SweepOpts{Arbs: CalibrationArbs},
		[]int{1, 2}, javacard.Organizations, AllAddrMaps, javacard.Workloads())
}
