package explore

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/calib"
	"repro/internal/fault"
	"repro/internal/javacard"
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
// configuration of the given axes exactly at the timed layers (the
// standard parallel sweep), counts each configuration's traffic once
// with the layer-3 counting bus, and regresses per-event-count
// coefficients per (layer, group) via deterministic least squares —
// one group per organization, plus one per (organization, arbitration
// policy) when opts.Arbs names policies. The faults axis comes from
// opts.Faults, defaulting to CalibrationFaults; arbitrated groups are
// measured on clean runs only.
//
// Calibration is strict about failures: a configuration that cannot be
// measured poisons the fit, so any sweep error aborts instead of
// fitting on a partial design.
func Calibrate(ctx context.Context, opts SweepOpts, layers []int, orgs []javacard.Organization, maps []string, workloads []javacard.Workload) (calib.Model, error) {
	sweepOpts := opts
	sweepOpts.OnResult = nil
	sweepOpts.Metrics = false
	sweepOpts.Arbs = nil
	if len(sweepOpts.Faults) == 0 {
		sweepOpts.Faults = CalibrationFaults
	}
	for _, l := range layers {
		if l == 3 {
			return calib.Model{}, fmt.Errorf("explore: cannot calibrate against layer 3 (it is the model under calibration)")
		}
	}

	results, err := SweepContext(ctx, sweepOpts, layers, orgs, maps, workloads)
	if err != nil {
		return calib.Model{}, fmt.Errorf("explore: calibration sweep: %w", err)
	}

	// The arbitrated groups get their own clean-only measurement sweep:
	// the contended system's traffic (and the grant wires' energy) is
	// what their coefficients must price.
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
		arbResults, err := SweepContext(ctx, arbOpts, layers, orgs, maps, workloads)
		if err != nil {
			return calib.Model{}, fmt.Errorf("explore: arbitration calibration sweep: %w", err)
		}
		results = append(results, arbResults...)
	}

	// One counting run per unique (workload, org, map, fault, arb): the
	// feature vector does not depend on the measured layer. The unique
	// shapes are collected from the measured results themselves so the
	// two sweeps above stay the single source of the calibrated space.
	preps := map[string]prepared{}
	for _, w := range workloads {
		p, err := prepare(w)
		if err != nil {
			return calib.Model{}, fmt.Errorf("explore: calibration %s: %w", w.Name, err)
		}
		preps[w.Name] = p
	}
	type fkey struct {
		wl            string
		org           javacard.Organization
		m, fault, arb string
	}
	feats := map[fkey][]float64{}
	for _, r := range results {
		k := fkey{r.Workload, r.Org, r.AddrMap, r.Fault, r.Arb}
		if _, ok := feats[k]; ok {
			continue
		}
		cfg := Config{Layer: 3, Org: r.Org, AddrMap: r.AddrMap, Fault: r.Fault, Arb: r.Arb}
		fv, _, err := countRun(ctx, cfg, preps[r.Workload])
		if err != nil {
			return calib.Model{}, fmt.Errorf("explore: calibration count %v/%s: %w", cfg, r.Workload, err)
		}
		feats[k] = fv.Vector()
	}

	samples := make([]calib.Sample, 0, len(results))
	for _, r := range results {
		x, ok := feats[fkey{r.Workload, r.Org, r.AddrMap, r.Fault, r.Arb}]
		if !ok {
			return calib.Model{}, fmt.Errorf("explore: calibration missing features for %v/%s", r.Config, r.Workload)
		}
		samples = append(samples, calib.Sample{
			Layer:   r.Layer,
			Group:   calibGroup(r.Org, r.Arb),
			Key:     r.Config.String() + "|" + r.Workload,
			X:       x,
			EnergyJ: r.BusEnergyJ,
			Cycles:  float64(r.Cycles),
		})
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
// caller pays the calibration sweep (a few hundred milliseconds);
// everyone after shares the fitted value.
func DefaultModel() (*calib.Model, error) {
	defaultModelOnce.Do(func() {
		defaultModelVal, defaultModelErr = Calibrate(context.Background(), SweepOpts{Arbs: CalibrationArbs},
			[]int{1, 2}, javacard.Organizations, AllAddrMaps, javacard.Workloads())
	})
	if defaultModelErr != nil {
		return nil, defaultModelErr
	}
	return &defaultModelVal, nil
}
