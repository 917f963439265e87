// Package calib fits and evaluates linear analytic models that map
// per-phase event counts to energy and cycle predictions — the
// characterization step of the layer-3 fast path. The fit follows the
// static-analysis estimation line (per-event counts × calibrated
// per-event coefficients): a small set of exact runs at the timed
// layers yields, by least squares, one coefficient vector per target
// layer and calibration group plus a quantified residual band. The band
// is what makes the model usable for pruning: a screening sweep can
// inflate predictions by the observed worst-case relative error and
// still make sound keep/drop decisions.
//
// Groups partition the calibration set along axes the linear feature
// model cannot absorb — the explorer groups by SFR organization, whose
// transaction shaping changes the per-event pricing itself. A grouped
// fit is an independent regression per (layer, group), so each group
// carries its own coefficients and its own (much tighter) residual
// band. The empty group name is valid and simply means "one pooled
// fit".
//
// Everything here is deterministic: samples are canonically ordered
// before any floating-point work, the normal-equations solve uses a
// fixed elimination order with deterministic tie-breaking, and
// degenerate columns (all-zero or linearly dependent features, e.g.
// error-phase counts on a fault-free calibration set) are dropped to a
// zero coefficient instead of poisoning the solve. Refitting on a
// permuted sample set yields bit-identical coefficients.
package calib

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Version identifies the model layout and fitting procedure. It is
// folded into content-addressed cache keys by callers that persist
// predictions, so changing the fit invalidates stale entries.
const Version = "calib/3"

// Sample is one calibration observation: the feature vector counted by
// the untimed layer-3 run of a configuration, paired with the exact
// energy and cycle count measured at a timed layer.
type Sample struct {
	Layer   int    // timed layer that produced the measurement (1, 2)
	Group   string // calibration group ("" = pooled fit)
	Key     string // canonical identity of the run (config + workload)
	X       []float64
	EnergyJ float64
	Cycles  float64
}

// GroupKey addresses one fitted coefficient set.
type GroupKey struct {
	Layer int
	Group string
}

// LayerModel holds the fitted coefficients and residual band for one
// (target layer, group) cell.
type LayerModel struct {
	Layer      int
	Group      string
	EnergyCoef []float64
	CycleCoef  []float64
	Samples    int

	// Residual band over the calibration set, as relative errors.
	EnergyMaxRel float64
	EnergyRMSRel float64
	CycleMaxRel  float64
	CycleRMSRel  float64
}

// Model is the persisted, versioned fit: one coefficient set per
// (target layer, group) over a shared feature vocabulary.
type Model struct {
	Version  string
	Features []string
	Fits     map[GroupKey]LayerModel
}

// Fit regresses per-feature coefficients for every (layer, group)
// present in samples. The sample order does not matter: a canonical
// sort happens first, so permuted inputs produce bit-identical models.
func Fit(features []string, samples []Sample) (Model, error) {
	if len(features) == 0 {
		return Model{}, errors.New("calib: empty feature list")
	}
	if len(samples) == 0 {
		return Model{}, errors.New("calib: no samples")
	}
	for i := range samples {
		if len(samples[i].X) != len(features) {
			return Model{}, fmt.Errorf("calib: sample %q has %d features, want %d",
				samples[i].Key, len(samples[i].X), len(features))
		}
	}

	// Canonical order: by layer, group, then key. Keys are expected
	// unique per cell; duplicates would make the fit depend on input
	// order, so reject them.
	sorted := make([]Sample, len(samples))
	copy(sorted, samples)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Layer != sorted[j].Layer {
			return sorted[i].Layer < sorted[j].Layer
		}
		if sorted[i].Group != sorted[j].Group {
			return sorted[i].Group < sorted[j].Group
		}
		return sorted[i].Key < sorted[j].Key
	})
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Layer == sorted[i-1].Layer && sorted[i].Group == sorted[i-1].Group &&
			sorted[i].Key == sorted[i-1].Key {
			return Model{}, fmt.Errorf("calib: duplicate sample key %q at layer %d group %q",
				sorted[i].Key, sorted[i].Layer, sorted[i].Group)
		}
	}

	m := Model{Version: Version, Features: append([]string(nil), features...), Fits: map[GroupKey]LayerModel{}}
	for lo := 0; lo < len(sorted); {
		hi := lo
		for hi < len(sorted) && sorted[hi].Layer == sorted[lo].Layer && sorted[hi].Group == sorted[lo].Group {
			hi++
		}
		cell := sorted[lo:hi]
		lm, err := fitCell(len(features), cell)
		if err != nil {
			return Model{}, fmt.Errorf("calib: layer %d group %q: %w", cell[0].Layer, cell[0].Group, err)
		}
		m.Fits[GroupKey{lm.Layer, lm.Group}] = lm
		lo = hi
	}
	return m, nil
}

func fitCell(p int, cell []Sample) (LayerModel, error) {
	rows := make([][]float64, len(cell))
	ye := make([]float64, len(cell))
	yc := make([]float64, len(cell))
	for i, s := range cell {
		rows[i] = s.X
		ye[i] = s.EnergyJ
		yc[i] = s.Cycles
	}
	ce, err := solveLSQ(rows, ye, p)
	if err != nil {
		return LayerModel{}, err
	}
	cc, err := solveLSQ(rows, yc, p)
	if err != nil {
		return LayerModel{}, err
	}
	lm := LayerModel{
		Layer:      cell[0].Layer,
		Group:      cell[0].Group,
		EnergyCoef: ce,
		CycleCoef:  cc,
		Samples:    len(cell),
	}
	lm.EnergyMaxRel, lm.EnergyRMSRel = residualBand(rows, ye, ce)
	lm.CycleMaxRel, lm.CycleRMSRel = residualBand(rows, yc, cc)
	return lm, nil
}

// residualBand returns the max and RMS relative error of the fitted
// predictions over the calibration rows. Zero-valued targets (which
// cannot carry a relative error) are skipped.
func residualBand(rows [][]float64, y, coef []float64) (maxRel, rmsRel float64) {
	var sumSq float64
	var n int
	for i := range rows {
		if y[i] == 0 {
			continue
		}
		rel := math.Abs(dot(coef, rows[i])-y[i]) / math.Abs(y[i])
		if rel > maxRel {
			maxRel = rel
		}
		sumSq += rel * rel
		n++
	}
	if n > 0 {
		rmsRel = math.Sqrt(sumSq / float64(n))
	}
	return maxRel, rmsRel
}

func dot(coef, x []float64) float64 {
	var s float64
	for i := range coef {
		s += coef[i] * x[i]
	}
	return s
}

// Predict evaluates the fitted model for one feature vector at the
// given (target layer, group) cell.
func (m Model) Predict(layer int, group string, x []float64) (energyJ, cycles float64, err error) {
	lm, ok := m.Fits[GroupKey{layer, group}]
	if !ok {
		return 0, 0, fmt.Errorf("calib: no model for layer %d group %q", layer, group)
	}
	if len(x) != len(m.Features) {
		return 0, 0, fmt.Errorf("calib: feature vector has %d entries, want %d", len(x), len(m.Features))
	}
	return dot(lm.EnergyCoef, x), dot(lm.CycleCoef, x), nil
}

// Epsilon derives the pruning margin for a (layer, group) cell from the
// fitted residual band: the observed worst-case relative error inflated
// by a safety factor (callers pass >= 1; 2 is the conventional choice).
// This is the "derived, not hand-picked" ε the multi-fidelity sweep
// uses for certain-domination tests.
func (m Model) Epsilon(layer int, group string, safety float64) (epsEnergy, epsCycles float64, err error) {
	lm, ok := m.Fits[GroupKey{layer, group}]
	if !ok {
		return 0, 0, fmt.Errorf("calib: no model for layer %d group %q", layer, group)
	}
	if safety < 1 {
		safety = 1
	}
	return lm.EnergyMaxRel * safety, lm.CycleMaxRel * safety, nil
}
