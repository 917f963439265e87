package explore

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"slices"
	"testing"

	"repro/internal/calib"
	"repro/internal/javacard"
)

// writeModel folds every fitted cell of m into h in (layer, group)
// order: the sample count, every coefficient and every residual band
// figure as IEEE-754 bit patterns.
func writeModel(h hash.Hash, m calib.Model) {
	fmt.Fprintf(h, "%s|%q\n", m.Version, m.Features)
	keys := make([]calib.GroupKey, 0, len(m.Fits))
	for k := range m.Fits {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b calib.GroupKey) int {
		return cmp.Or(cmp.Compare(a.Layer, b.Layer), cmp.Compare(a.Group, b.Group))
	})
	bits := func(xs ...float64) {
		for _, x := range xs {
			fmt.Fprintf(h, " %x", math.Float64bits(x))
		}
		fmt.Fprintln(h)
	}
	for _, k := range keys {
		f := m.Fits[k]
		fmt.Fprintf(h, "L%d|%s|%d\n", k.Layer, k.Group, f.Samples)
		bits(f.EnergyCoef...)
		bits(f.CycleCoef...)
		bits(f.EnergyMaxRel, f.EnergyRMSRel, f.CycleMaxRel, f.CycleRMSRel)
	}
}

func modelDigest(m calib.Model) string {
	h := sha256.New()
	writeModel(h, m)
	return hex.EncodeToString(h.Sum(nil))
}

// TestDefaultModelPinned pins the default calibration to the digest of
// the model the serial-counting calibration fitted. Any moved
// coefficient, band or residual bit fails it.
func TestDefaultModelPinned(t *testing.T) {
	m, err := DefaultModel()
	if err != nil {
		t.Fatal(err)
	}
	const want = "06d58299c06891dec4975bf325ba406251ee6c14a7ae0e0cce2315c178b19d68"
	if got := modelDigest(*m); got != want {
		t.Fatalf("default model digest %s, want %s", got, want)
	}
}

// calibSpace is a reduced calibration space: one workload, two
// organizations, two maps, a clean and a storm plan, and round-robin
// arbitration.
func calibSpace() (opts SweepOpts, orgs []javacard.Organization, maps []string, wls []javacard.Workload) {
	return SweepOpts{Faults: []string{"none", "storm"}, Arbs: []string{"rr"}},
		javacard.Organizations[:2], AddrMaps[:2], javacard.Workloads()[:1]
}

// TestCalibrateWorkersInvariant checks that the fitted model does not
// depend on the worker count: every job's output lands in its own slot.
func TestCalibrateWorkersInvariant(t *testing.T) {
	opts, orgs, maps, wls := calibSpace()
	var digests []string
	for _, w := range []int{1, 4} {
		opts.Workers = w
		m, err := Calibrate(t.Context(), opts, []int{1, 2}, orgs, maps, wls)
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		digests = append(digests, modelDigest(m))
	}
	if digests[0] != digests[1] {
		t.Fatalf("model differs by worker count: 1 → %s, 4 → %s", digests[0], digests[1])
	}
}

// TestCalibrateCancelled checks that an already-cancelled context fits
// nothing and says why.
func TestCalibrateCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts, orgs, maps, wls := calibSpace()
	m, err := Calibrate(ctx, opts, []int{1, 2}, orgs, maps, wls)
	var ce *CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("want a *CancelledError, got %v", err)
	}
	if m.Fits != nil {
		t.Fatalf("cancelled calibration returned a model with %d cells", len(m.Fits))
	}
}

// BenchmarkCalibrateCold times the default calibration as a fresh
// process runs it: the feature cache is emptied before every iteration,
// so each counting run executes.
func BenchmarkCalibrateCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		featMu.Lock()
		clear(featCache)
		featMu.Unlock()
		if _, err := calibrateDefault(); err != nil {
			b.Fatal(err)
		}
	}
}
