package rtlbus

import (
	"repro/internal/metrics"
	"repro/internal/sim"
)

// AttachMetrics connects an observability registry to the layer-0 bus
// (nil detaches counters). The per-slave energy table is bound to the
// address map's decode order.
//
// total is the energy meter to attribute — typically the method value
// est.TotalEnergy of the gate-level estimator observing this bus; nil
// collects counters without energy attribution.
//
// When total is non-nil, AttachMetrics registers a Post-phase observer
// that samples the meter once per executed cycle, classified by the
// phase the bus drove that cycle, plus a skip callback that books the
// clock/idle energy integrated across fast-forwarded gaps into the
// idle bucket. Call it after the estimator's own Post observer has
// been registered (registration order is execution order), so each
// sample sees the cycle's energy already integrated.
func (b *Bus) AttachMetrics(k *sim.Kernel, reg *metrics.Registry, total func() float64) *Bus {
	b.mx = reg
	b.SetMetrics(reg)
	b.mxKind, b.mxSlave = metrics.PhaseIdle, -1
	reg.BindSlaves(b.m.Names()...)
	if reg == nil || total == nil {
		return b
	}
	k.AtObserver(sim.Post, "rtlbus-metrics",
		func(cycle uint64) {
			reg.EnergySample(b.mxKind, b.mxSlave, total())
		},
		func(n uint64) {
			reg.EnergySample(metrics.PhaseIdle, -1, total())
		})
	return b
}

// mark classifies the executing cycle for energy attribution, keeping
// the highest-priority phase kind when several units act at once.
func (b *Bus) mark(kind metrics.PhaseKind, slave int) {
	if b.mxKind == metrics.PhaseIdle || kind > b.mxKind {
		b.mxKind, b.mxSlave = kind, slave
	}
}
