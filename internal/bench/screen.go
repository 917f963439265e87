package bench

import (
	"fmt"
	"sync"

	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/tlm3"
)

// Corpus-side analytic screening: the layer-3 counting bus drives the
// same transaction scripts the estimation service serves, and a
// calibrated linear model maps the counted features onto each exact
// layer's energy and cycle figures. This is the bench-layout twin of
// the explorer's workload-side calibration — it exists to quantify the
// analytic fast path's error band against TL2, TL1 and the gate-level
// reference on corpus traffic, where the property suite can sweep
// hundreds of random corpora cheaply.

// ScreenLayers lists the exact layers the corpus screening model is
// calibrated against: the gate-level reference and both timed TL
// layers.
var ScreenLayers = []int{0, 1, 2}

// screenTrainSeeds / screenTrainLen size the calibration set: enough
// corpora that the 10-feature regression is well overdetermined, with
// seeds far away from the property suite's evaluation range so the
// reported band is held-out, not in-sample.
const (
	screenTrainSeeds = 24
	screenTrainBase  = 10_001
	screenTrainLen   = 120
)

// CountCorpus counts one corpus script's traffic features with the
// layer-3 counting bus over the reference two-slave layout. The second
// return is the counting bus's protocol-minimum cycle tally.
func CountCorpus(items []core.Item) (tlm3.Features, uint64, error) {
	k := sim.New(0)
	c := tlm3.NewCounter(platform.RefMap())
	m := core.NewScriptMaster(k, c, items)
	k.RunUntil(10_000_000, m.Done)
	if !m.Done() {
		return tlm3.Features{}, 0, fmt.Errorf("bench: corpus counting run did not complete")
	}
	return c.Features(), c.Cycles(), nil
}

// corpusFeatureNames extends the counting-bus vocabulary with the
// script's issue schedule: corpus items carry NotBefore release times,
// and the cycle count of a timed run tracks the later of "bus busy"
// and "still waiting for scheduled work" — information pure traffic
// counting cannot see. The span feature restores it to the regression.
func corpusFeatureNames() []string { return append(tlm3.FeatureNames(), "issue_span") }

// corpusVector counts items and appends the schedule span.
func corpusVector(items []core.Item) ([]float64, error) {
	var span uint64
	for i := range items {
		if items[i].NotBefore > span {
			span = items[i].NotBefore
		}
	}
	fv, _, err := CountCorpus(items)
	if err != nil {
		return nil, err
	}
	return append(fv.Vector(), float64(span)), nil
}

var (
	screenOnce sync.Once
	screenVal  calib.Model
	screenErr  error
)

// ScreenModel returns the memoized corpus screening model: per-layer
// coefficient sets fitted on screenTrainSeeds random corpora measured
// exactly at every ScreenLayers level. The first caller pays the
// calibration (a few dozen short runs); everyone after shares the fit.
func ScreenModel() (*calib.Model, error) {
	screenOnce.Do(func() { screenVal, screenErr = fitScreenModel() })
	if screenErr != nil {
		return nil, screenErr
	}
	return &screenVal, nil
}

func fitScreenModel() (calib.Model, error) {
	char := CharTable()
	var samples []calib.Sample
	for i := 0; i < screenTrainSeeds; i++ {
		seed := uint64(screenTrainBase + i)
		items := core.RandomCorpus(seed, screenTrainLen, lay)
		x, err := corpusVector(core.CloneItems(items))
		if err != nil {
			return calib.Model{}, fmt.Errorf("bench: screen calibration seed %d: %w", seed, err)
		}
		for _, layer := range ScreenLayers {
			cycles, energyJ := runLayer(layer, core.CloneItems(items), true, char)
			samples = append(samples, calib.Sample{
				Layer:   layer,
				Key:     fmt.Sprintf("corpus-%d", seed),
				X:       x,
				EnergyJ: energyJ,
				Cycles:  float64(cycles),
			})
		}
	}
	m, err := calib.Fit(corpusFeatureNames(), samples)
	if err != nil {
		return calib.Model{}, fmt.Errorf("bench: screen calibration fit: %w", err)
	}
	return m, nil
}

// ScreenCorpus predicts the energy and cycle figures a corpus script
// would produce at the given exact layer, from one counting run plus
// the calibrated model — the analytic fast path for corpus traffic.
func ScreenCorpus(layer int, items []core.Item) (energyJ, cycles float64, err error) {
	m, err := ScreenModel()
	if err != nil {
		return 0, 0, err
	}
	x, err := corpusVector(items)
	if err != nil {
		return 0, 0, err
	}
	return m.Predict(layer, "", x)
}
