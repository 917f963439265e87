package repro

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/ecbus"
	"repro/internal/gatepower"
	"repro/internal/metrics"
)

// The observability layer's disabled state is a nil *Registry: every
// hook is a nil-receiver no-op, so an uninstrumented-feeling hot path
// is the contract, not an aspiration. These benchmarks put the exact
// per-cycle disabled-path call (the layer-0 Post-observer energy
// sample) on top of the Observe_Dense worst case, and the test pins
// the overhead: zero allocations, and within 2% of the plain
// Observe_Dense time per op.

// observeDense is the BenchmarkObserve_Dense loop: n observations of
// a bundle whose every signal flips each cycle.
func observeDense(est *gatepower.Estimator, w *ecbus.Bundle, n int) {
	for i := 0; i < n; i++ {
		flip := ^uint64(0) * uint64(i&1)
		for id := ecbus.SignalID(0); id < ecbus.NumSignals; id++ {
			w.Set(id, flip)
		}
		est.Observe(w)
	}
}

// observeDenseMetered is observeDense plus the per-cycle metrics hooks
// against reg (nil = disabled), wired the way the bus models wire them:
// the counter hooks sit in the tick path unconditionally as
// nil-receiver calls, while the energy sample (which reads the meter)
// is only taken for an enabled registry — a disabled one registers no
// sampler, so the disabled loop makes no sampling call.
func observeDenseMetered(est *gatepower.Estimator, w *ecbus.Bundle, reg *metrics.Registry, n int) {
	sample := reg != nil
	for i := 0; i < n; i++ {
		flip := ^uint64(0) * uint64(i&1)
		for id := ecbus.SignalID(0); id < ecbus.NumSignals; id++ {
			w.Set(id, flip)
		}
		est.Observe(w)
		reg.Beat()
		reg.WaitCycle()
		if sample {
			reg.EnergySample(metrics.PhaseReadData, 0, est.TotalEnergy())
		}
	}
}

func benchObserveDense(b *testing.B, reg *metrics.Registry) {
	est := gatepower.NewEstimator(gatepower.DefaultConfig())
	var w ecbus.Bundle
	b.ReportAllocs()
	b.ResetTimer()
	observeDenseMetered(est, &w, reg, b.N)
}

func BenchmarkObserve_DenseMetricsDisabled(b *testing.B) {
	benchObserveDense(b, nil)
}

func BenchmarkObserve_DenseMetricsEnabled(b *testing.B) {
	reg := metrics.New("L0")
	reg.BindSlaves("fast", "slow")
	benchObserveDense(b, reg)
}

// densePairs times pairs interleaved runs of n observations on the
// plain loop and on the loop with disabled metrics, alternating which
// goes first. It returns the median of the per-pair ratios
// instrumented/plain and each side's median ns/op. A pair's two runs
// share the host's load of the moment, so the paired median keeps one
// scheduler hiccup, or tests running beside this one, from deciding
// the comparison.
func densePairs(pairs, n int) (ratio, base, inst float64) {
	nsPerOp := func(metered bool) float64 {
		est := gatepower.NewEstimator(gatepower.DefaultConfig())
		var w ecbus.Bundle
		runtime.GC()
		start := time.Now()
		if metered {
			observeDenseMetered(est, &w, nil, n)
		} else {
			observeDense(est, &w, n)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	var bs, is, rs []float64
	for i := 0; i < pairs; i++ {
		var b, m float64
		if i%2 == 0 {
			b = nsPerOp(false)
			m = nsPerOp(true)
		} else {
			m = nsPerOp(true)
			b = nsPerOp(false)
		}
		bs, is, rs = append(bs, b), append(is, m), append(rs, m/b)
	}
	median := func(xs []float64) float64 {
		sort.Float64s(xs)
		return xs[len(xs)/2]
	}
	return median(rs), median(bs), median(is)
}

// TestDisabledMetricsZeroCost asserts the acceptance bound on the
// disabled path: 0 allocs/op, and time/op within 2% of the plain dense
// observation loop's, as the median over interleaved pairs. The timing
// is retried a few times so one burst of host load does not fail the
// build; the alloc bound is exact.
func TestDisabledMetricsZeroCost(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short")
	}

	// Every disabled-path hook must be allocation-free (and not crash).
	var reg *metrics.Registry
	if n := testing.AllocsPerRun(1000, func() {
		reg.EnergySample(metrics.PhaseAddress, 1, 1.0)
		reg.Beat()
		reg.Beats(4)
		reg.WaitCycle()
		reg.WaitCycles(2)
		reg.Retries(1)
		reg.TxRejected(1)
		reg.TxAccepted(0, 1)
		reg.Finalize(2.0)
		reg.RecordKernel(1, 2, 3, 4)
		reg.FaultReadError()
		reg.FaultWriteError()
		reg.FaultCorruption()
		reg.FaultExtraWait(3)
		reg.FaultStretch(2)
		reg.SetMaster("m")
		reg.BindSlaves("a")
	}); n != 0 {
		t.Fatalf("disabled registry allocated %.1f allocs/op", n)
	}
	est := gatepower.NewEstimator(gatepower.DefaultConfig())
	var w ecbus.Bundle
	if n := testing.AllocsPerRun(1000, func() { observeDenseMetered(est, &w, nil, 1) }); n != 0 {
		t.Fatalf("disabled metrics path allocates: %.1f allocs/op", n)
	}

	const tolerance = 1.02
	var ratio, baseNs, instNs float64
	for attempt := 0; attempt < 4; attempt++ {
		ratio, baseNs, instNs = densePairs(31, 50_000)
		if ratio <= tolerance {
			return
		}
	}
	t.Errorf("disabled metrics overhead above 2%%: median pair ratio %.3f (median base %.1f ns/op, instrumented %.1f ns/op)",
		ratio, baseNs, instNs)
}
