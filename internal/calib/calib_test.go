package calib

import (
	"fmt"
	"math"
	"testing"
)

// synthSamples builds samples from a known linear law y = coef·x with
// a deterministic pseudo-random design, so the fit has a ground truth.
func synthSamples(t *testing.T, n int, energyCoef, cycleCoef []float64) []Sample {
	t.Helper()
	p := len(energyCoef)
	state := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	out := make([]Sample, n)
	for i := 0; i < n; i++ {
		x := make([]float64, p)
		for j := range x {
			x[j] = float64(next() % 1000)
		}
		var e, c float64
		for j := range x {
			e += energyCoef[j] * x[j]
			c += cycleCoef[j] * x[j]
		}
		out[i] = Sample{Layer: 2, Key: fmt.Sprintf("cfg-%03d", i), X: x, EnergyJ: e, Cycles: c}
	}
	return out
}

func TestFitRecoversExactLinearLaw(t *testing.T) {
	energy := []float64{1.5e-12, 0, 3.25e-12, 7e-13}
	cycles := []float64{2, 1, 0, 4}
	samples := synthSamples(t, 40, energy, cycles)
	m, err := Fit([]string{"a", "b", "c", "d"}, samples)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	lm := m.Fits[GroupKey{Layer: 2}]
	// Tolerances are relative to each coefficient vector's magnitude
	// (energy coefficients live at ~1e-12, cycle ones at ~1e0), so an
	// exactly-zero entry is allowed the same numerical slack as the rest.
	scaleOf := func(v []float64) float64 {
		s := 0.0
		for _, c := range v {
			if a := math.Abs(c); a > s {
				s = a
			}
		}
		return s
	}
	eScale, cScale := scaleOf(energy), scaleOf(cycles)
	for j := range energy {
		if math.Abs(lm.EnergyCoef[j]-energy[j]) > 1e-9*eScale {
			t.Errorf("energy coef %d: got %g want %g", j, lm.EnergyCoef[j], energy[j])
		}
		if math.Abs(lm.CycleCoef[j]-cycles[j]) > 1e-9*cScale {
			t.Errorf("cycle coef %d: got %g want %g", j, lm.CycleCoef[j], cycles[j])
		}
	}
	if lm.EnergyMaxRel > 1e-9 || lm.CycleMaxRel > 1e-9 {
		t.Errorf("exact law should fit with ~zero residual, got energy %g cycles %g",
			lm.EnergyMaxRel, lm.CycleMaxRel)
	}
	eJ, cyc, err := m.Predict(2, "", []float64{1, 1, 1, 1})
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	wantE := energy[0] + energy[1] + energy[2] + energy[3]
	if math.Abs(eJ-wantE)/wantE > 1e-9 {
		t.Errorf("Predict energy = %g, want %g", eJ, wantE)
	}
	if math.Abs(cyc-7)/7 > 1e-9 {
		t.Errorf("Predict cycles = %g, want 7", cyc)
	}
}

// TestFitDeterministicUnderPermutation is the calibration determinism
// property: refitting on a permuted sample set must yield bit-identical
// coefficients and residual stats.
func TestFitDeterministicUnderPermutation(t *testing.T) {
	samples := synthSamples(t, 60, []float64{1e-12, 2e-12, 0, 5e-13}, []float64{3, 0, 1, 2})
	// Perturb targets so the system is overdetermined with nonzero
	// residual (the interesting case for determinism).
	for i := range samples {
		bump := 1 + 0.01*math.Sin(float64(i))
		samples[i].EnergyJ *= bump
		samples[i].Cycles *= bump
	}
	features := []string{"a", "b", "c", "d"}
	base, err := Fit(features, samples)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	perms := [][]int{reversed(len(samples)), rotated(len(samples), 17), shuffled(len(samples), 0xDEAD)}
	for pi, perm := range perms {
		permuted := make([]Sample, len(samples))
		for i, src := range perm {
			permuted[i] = samples[src]
		}
		got, err := Fit(features, permuted)
		if err != nil {
			t.Fatalf("Fit permuted %d: %v", pi, err)
		}
		lb, lg := base.Fits[GroupKey{Layer: 2}], got.Fits[GroupKey{Layer: 2}]
		for j := range lb.EnergyCoef {
			if math.Float64bits(lb.EnergyCoef[j]) != math.Float64bits(lg.EnergyCoef[j]) {
				t.Errorf("perm %d: energy coef %d differs: %x vs %x", pi, j,
					math.Float64bits(lb.EnergyCoef[j]), math.Float64bits(lg.EnergyCoef[j]))
			}
			if math.Float64bits(lb.CycleCoef[j]) != math.Float64bits(lg.CycleCoef[j]) {
				t.Errorf("perm %d: cycle coef %d differs", pi, j)
			}
		}
		if math.Float64bits(lb.EnergyMaxRel) != math.Float64bits(lg.EnergyMaxRel) ||
			math.Float64bits(lb.EnergyRMSRel) != math.Float64bits(lg.EnergyRMSRel) {
			t.Errorf("perm %d: energy residual band differs", pi)
		}
	}
}

func reversed(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = n - 1 - i
	}
	return p
}

func rotated(n, k int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = (i + k) % n
	}
	return p
}

func shuffled(n int, seed uint64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	state := seed
	for i := n - 1; i > 0; i-- {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		j := int(state % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// TestFitDropsDegenerateColumns: an all-zero column (error phases on a
// clean calibration set) and an exact duplicate column must both get a
// deterministic zero coefficient instead of blowing up the solve.
func TestFitDropsDegenerateColumns(t *testing.T) {
	samples := synthSamples(t, 30, []float64{2e-12, 1e-12, 4e-13}, []float64{1, 2, 3})
	// Extend every X with a zero column and a copy of column 0.
	for i := range samples {
		x := samples[i].X
		samples[i].X = append(append([]float64(nil), x...), 0, x[0])
	}
	m, err := Fit([]string{"a", "b", "c", "zero", "dup-a"}, samples)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	lm := m.Fits[GroupKey{Layer: 2}]
	if lm.EnergyCoef[3] != 0 || lm.CycleCoef[3] != 0 {
		t.Errorf("zero column should have coefficient 0, got %g / %g", lm.EnergyCoef[3], lm.CycleCoef[3])
	}
	// The duplicate pair (a, dup-a) is rank-deficient: exactly one of
	// the two carries the weight, the other is dropped to zero, and the
	// predictions still reproduce the law.
	if lm.EnergyCoef[0] != 0 && lm.EnergyCoef[4] != 0 {
		t.Errorf("duplicate columns both nonzero: %g and %g", lm.EnergyCoef[0], lm.EnergyCoef[4])
	}
	if lm.EnergyMaxRel > 1e-9 {
		t.Errorf("degenerate columns should not hurt the fit, residual %g", lm.EnergyMaxRel)
	}
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(nil, []Sample{{Layer: 1, Key: "x", X: nil}}); err == nil {
		t.Error("empty feature list should fail")
	}
	if _, err := Fit([]string{"a"}, nil); err == nil {
		t.Error("no samples should fail")
	}
	if _, err := Fit([]string{"a"}, []Sample{{Layer: 1, Key: "x", X: []float64{1, 2}}}); err == nil {
		t.Error("feature-count mismatch should fail")
	}
	dup := []Sample{
		{Layer: 1, Key: "x", X: []float64{1}, EnergyJ: 1, Cycles: 1},
		{Layer: 1, Key: "x", X: []float64{2}, EnergyJ: 2, Cycles: 2},
	}
	if _, err := Fit([]string{"a"}, dup); err == nil {
		t.Error("duplicate sample keys should fail")
	}
}

func TestPredictAndEpsilonErrors(t *testing.T) {
	m, err := Fit([]string{"a"}, []Sample{
		{Layer: 2, Key: "p", X: []float64{1}, EnergyJ: 2e-12, Cycles: 10},
		{Layer: 2, Key: "q", X: []float64{2}, EnergyJ: 4.2e-12, Cycles: 21},
	})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if _, _, err := m.Predict(7, "", []float64{1}); err == nil {
		t.Error("unknown layer should fail Predict")
	}
	if _, _, err := m.Predict(2, "", []float64{1, 2}); err == nil {
		t.Error("wrong vector length should fail Predict")
	}
	if _, _, err := m.Epsilon(7, "", 2); err == nil {
		t.Error("unknown layer should fail Epsilon")
	}
	eE, eC, err := m.Epsilon(2, "", 2)
	if err != nil {
		t.Fatalf("Epsilon: %v", err)
	}
	lm := m.Fits[GroupKey{Layer: 2}]
	if eE != 2*lm.EnergyMaxRel || eC != 2*lm.CycleMaxRel {
		t.Errorf("Epsilon should scale the max-rel band: got %g/%g band %g/%g",
			eE, eC, lm.EnergyMaxRel, lm.CycleMaxRel)
	}
	if lm.EnergyMaxRel <= 0 {
		t.Error("perturbed fit should have a nonzero residual band")
	}
	// Safety below 1 clamps to 1 (never shrink the observed band).
	e1, _, _ := m.Epsilon(2, "", 0.5)
	if e1 != lm.EnergyMaxRel {
		t.Errorf("safety < 1 should clamp to the band itself, got %g want %g", e1, lm.EnergyMaxRel)
	}
}

// TestFitGroupsIndependently: samples tagged with different groups get
// independent regressions — each group recovers its own law even when
// the laws disagree.
func TestFitGroupsIndependently(t *testing.T) {
	a := synthSamples(t, 25, []float64{1e-12, 2e-12, 0, 4e-13}, []float64{1, 2, 3, 4})
	b := synthSamples(t, 25, []float64{9e-12, 1e-13, 5e-12, 0}, []float64{4, 3, 2, 1})
	for i := range a {
		a[i].Group = "alpha"
	}
	for i := range b {
		b[i].Group = "beta"
		b[i].EnergyJ *= 1 + 0.02*math.Sin(float64(i)) // beta carries residual
	}
	m, err := Fit([]string{"a", "b", "c", "d"}, append(a, b...))
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	la, lb := m.Fits[GroupKey{2, "alpha"}], m.Fits[GroupKey{2, "beta"}]
	if la.Samples != 25 || lb.Samples != 25 {
		t.Fatalf("group sample counts: %d / %d", la.Samples, lb.Samples)
	}
	if math.Abs(la.EnergyCoef[0]-1e-12) > 1e-21 {
		t.Errorf("alpha coef 0 = %g, want 1e-12", la.EnergyCoef[0])
	}
	if la.EnergyMaxRel > 1e-9 {
		t.Errorf("alpha is an exact law, residual %g", la.EnergyMaxRel)
	}
	if lb.EnergyMaxRel < 1e-3 {
		t.Errorf("beta carries a perturbation, residual %g too small", lb.EnergyMaxRel)
	}
	if _, _, err := m.Predict(2, "gamma", []float64{1, 1, 1, 1}); err == nil {
		t.Error("unknown group should fail Predict")
	}
}
