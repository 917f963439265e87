package core

import (
	"sync/atomic"

	"repro/internal/gatepower"
	"repro/internal/sim"
)

// reference mirrors the last SetReference value for Reference().
var reference atomic.Bool

// SetReference switches the simulation core between its optimized
// per-cycle hot path (the default) and the straightforward reference
// path. The reference path executes every cycle (no idle-cycle
// fast-forward) and full-scans all signals in the energy models (no
// dirty-mask iteration, no precomputed tables on the scan side).
//
// The switch affects objects constructed after the call; flip it before
// building a platform. The golden-equivalence tests run every corpus
// through both paths and require byte-identical results — reported
// tables, traces and energy totals must not depend on this switch.
func SetReference(on bool) {
	reference.Store(on)
	gatepower.SetReferencePath(on)
	sim.SetIdleSkipDisabled(on)
}

// Reference reports whether the reference path is selected.
func Reference() bool { return reference.Load() }
