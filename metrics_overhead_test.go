package repro

import (
	"testing"

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

// benchObserveDense is BenchmarkObserve_Dense plus the per-cycle
// metrics hooks against the given registry (nil = disabled), wired the
// way the bus models wire them: the counter hooks sit in the tick path
// unconditionally as nil-receiver calls, while the energy-sampling
// observer (which reads the meter) is only registered for an enabled
// registry.
func benchObserveDense(b *testing.B, reg *metrics.Registry) {
	est := gatepower.NewEstimator(gatepower.DefaultConfig())
	var w ecbus.Bundle
	sample := func() {}
	if reg.Enabled() {
		sample = func() { reg.EnergySample(metrics.PhaseReadData, 0, est.TotalEnergy()) }
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flip := ^uint64(0) * uint64(i&1)
		for id := ecbus.SignalID(0); id < ecbus.NumSignals; id++ {
			w.Set(id, flip)
		}
		est.Observe(&w)
		reg.Beat()
		reg.WaitCycle()
		sample()
	}
}

func BenchmarkObserve_DenseMetricsDisabled(b *testing.B) {
	benchObserveDense(b, nil)
}

func BenchmarkObserve_DenseMetricsEnabled(b *testing.B) {
	reg := metrics.New("L0")
	reg.BindSlaves("fast", "slow")
	benchObserveDense(b, reg)
}

// TestDisabledMetricsZeroCost asserts the acceptance bound on the
// disabled path: 0 allocs/op, and time/op within 2% of the plain dense
// observation loop. Timing is retried a few times so one scheduler
// hiccup does not fail the build; the alloc bound is exact.
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

	const tolerance = 1.02
	var baseNs, instNs float64
	for attempt := 0; attempt < 4; attempt++ {
		base := testing.Benchmark(BenchmarkObserve_Dense)
		inst := testing.Benchmark(BenchmarkObserve_DenseMetricsDisabled)
		if inst.AllocsPerOp() != 0 {
			t.Fatalf("disabled metrics path allocates: %d allocs/op", inst.AllocsPerOp())
		}
		baseNs, instNs = float64(base.NsPerOp()), float64(inst.NsPerOp())
		if instNs <= baseNs*tolerance {
			return
		}
	}
	t.Errorf("disabled metrics overhead above 2%%: base %.1f ns/op, instrumented %.1f ns/op",
		baseNs, instNs)
}
