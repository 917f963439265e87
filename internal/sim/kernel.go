// Package sim provides the deterministic cycle-based simulation kernel
// underlying all bus models in this repository.
//
// The kernel substitutes for the SystemC 2.0 scheduler used by the paper.
// The paper's models are SC_METHOD processes sensitive to clock edges
// only (masters and slaves trigger on the rising edge, the bus process on
// the falling edge), so a two-edge clocked kernel with a deterministic
// intra-edge ordering reproduces the relevant scheduling semantics without
// delta cycles or dynamic sensitivity.
//
// Each simulated clock cycle executes three phases in order:
//
//  1. Rising  — masters and slaves run (issue/accept requests).
//  2. Falling — bus processes run (protocol state machines advance).
//  3. Post    — observers run (power estimators, tracers, probes).
//
// Within a phase, processes run in registration order, which makes every
// simulation bit-reproducible.
package sim

import (
	"fmt"
	"sync/atomic"
)

// NoEvent is returned by a Hint to declare that the process needs no
// future cycle at all (fully quiescent).
const NoEvent = ^uint64(0)

// Hint reports the earliest cycle at which the process needs to execute
// again, given that `now` is the next cycle to run. Returning a value
// <= now means "I must run now"; NoEvent means "never, as things stand".
// Hints must be conservative: claiming a later cycle than the process
// actually needs would change simulation results. A hint is evaluated
// before the cycle's procs run, so it sees the post-state of the
// previous cycle.
type Hint func(now uint64) uint64

// SkipFunc is notified when the kernel fast-forwards n idle cycles so the
// process can advance internal counters (wait-state countdowns, per-cycle
// energy integration) as if the cycles had executed.
type SkipFunc func(n uint64)

// idleSkipDisabled globally disables the idle-cycle fast-forward; set by
// core.SetReference so the reference path executes every cycle.
var idleSkipDisabled atomic.Bool

// SetIdleSkipDisabled globally enables/disables idle-cycle skipping in
// Run and RunUntil. Used by the golden-equivalence reference mode.
func SetIdleSkipDisabled(off bool) { idleSkipDisabled.Store(off) }

// IdleSkipDisabled reports the current global idle-skip setting so other
// execution engines (the batched SoA engine) can honor the same
// reference-mode contract as the kernel.
func IdleSkipDisabled() bool { return idleSkipDisabled.Load() }

// Phase identifies one of the three sub-steps of a simulated clock cycle.
type Phase int

// The three kernel phases, in execution order.
const (
	Rising Phase = iota
	Falling
	Post
)

// Proc is a simulation process. It is invoked once per cycle during the
// phase it was registered for. The cycle argument is the number of the
// cycle being executed, starting at 0.
type Proc func(cycle uint64)

type procEntry struct {
	name string
	fn   Proc
}

// Kernel is a cycle-based simulation kernel. The zero value is ready to
// use. Kernels are not safe for concurrent use; the entire simulation is
// single-threaded and deterministic by design.
type Kernel struct {
	cycle    uint64
	rising   []procEntry
	falling  []procEntry
	post     []procEntry
	started  bool
	ClockPS  uint64 // clock period in picoseconds; 0 means unspecified
	procsRun uint64

	// Idle-cycle fast-forward state. Skipping is possible only when every
	// registered proc supplied a hint (unhinted == 0): a proc without a
	// hint might need any cycle, so its presence pins the kernel to
	// cycle-by-cycle execution — existing callers are unaffected.
	hints    []Hint
	skippers []SkipFunc
	unhinted int
	skipped  uint64 // cycles fast-forwarded
	skips    uint64 // fast-forward events

	runObs RunObserver
}

// RunObserver receives the kernel's cycle accounting whenever a Run or
// RunUntil returns. It is the kernel end of the observability layer:
// metrics.Registry implements it, so a registry can be handed straight
// to SetRunObserver without the kernel depending on the metrics
// package. The callback fires once per run, never on the per-cycle
// path.
type RunObserver interface {
	RecordKernel(cycles, skippedCycles, idleSkips, procsRun uint64)
}

// SetRunObserver installs o; a nil observer disables the callback.
func (k *Kernel) SetRunObserver(o RunObserver) { k.runObs = o }

// noteRun reports the accounting totals to the run observer, if any.
func (k *Kernel) noteRun() {
	if k.runObs != nil {
		k.runObs.RecordKernel(k.cycle, k.skipped, k.skips, k.procsRun)
	}
}

// New returns a kernel with the given clock period in picoseconds.
// A period of 0 is allowed and simply leaves wall-time conversion
// unavailable.
func New(clockPS uint64) *Kernel {
	return &Kernel{ClockPS: clockPS}
}

// At registers fn to run during phase ph every cycle. The name is used in
// diagnostics only. Registration order within a phase is execution order.
// Registering after Run has started is not allowed. A proc registered
// with At has no quiescence hint and therefore disables idle-cycle
// skipping for the whole kernel; use AtHinted or AtObserver for procs
// that can declare their next needed cycle.
func (k *Kernel) At(ph Phase, name string, fn Proc) {
	k.register(ph, name, fn)
	k.unhinted++
}

// AtHinted registers fn like At, plus a quiescence hint and an optional
// skip callback. The hint is evaluated before each cycle in Run/RunUntil;
// when every registered proc is hinted and all hints agree the next
// needed cycle is in the future, the kernel jumps there directly, calling
// each non-nil SkipFunc (in registration order) with the number of cycles
// skipped.
func (k *Kernel) AtHinted(ph Phase, name string, fn Proc, hint Hint, onSkip SkipFunc) {
	k.register(ph, name, fn)
	if hint == nil {
		panic("sim: AtHinted requires a hint; use At or AtObserver")
	}
	k.hints = append(k.hints, hint)
	if onSkip != nil {
		k.skippers = append(k.skippers, onSkip)
	}
}

// AtObserver registers fn as a pure observer: it never requires a cycle
// of its own (it only watches cycles others cause), so it does not
// constrain idle skipping. Its SkipFunc, if non-nil, is invoked on every
// fast-forward so per-cycle integration (clock, leakage) stays exact.
func (k *Kernel) AtObserver(ph Phase, name string, fn Proc, onSkip SkipFunc) {
	k.register(ph, name, fn)
	if onSkip != nil {
		k.skippers = append(k.skippers, onSkip)
	}
}

func (k *Kernel) register(ph Phase, name string, fn Proc) {
	if k.started {
		panic("sim: cannot register process after Run")
	}
	e := procEntry{name: name, fn: fn}
	switch ph {
	case Rising:
		k.rising = append(k.rising, e)
	case Falling:
		k.falling = append(k.falling, e)
	case Post:
		k.post = append(k.post, e)
	default:
		panic(fmt.Sprintf("sim: unknown phase %d", int(ph)))
	}
}

// Cycle returns the number of fully or partially executed cycles. During a
// callback it equals the index of the cycle being executed.
func (k *Kernel) Cycle() uint64 { return k.cycle }

// ProcsRun returns the total number of process invocations, a cheap
// progress metric used by the simulation-performance benchmarks.
func (k *Kernel) ProcsRun() uint64 { return k.procsRun }

// Step executes exactly one clock cycle (all three phases).
func (k *Kernel) Step() {
	k.started = true
	c := k.cycle
	for i := range k.rising {
		k.rising[i].fn(c)
	}
	for i := range k.falling {
		k.falling[i].fn(c)
	}
	for i := range k.post {
		k.post[i].fn(c)
	}
	k.procsRun += uint64(len(k.rising) + len(k.falling) + len(k.post))
	k.cycle++
}

// SkippedCycles returns the number of cycles fast-forwarded by the
// idle-skip machinery (they are included in cycle counts and Run totals).
func (k *Kernel) SkippedCycles() uint64 { return k.skipped }

// IdleSkips returns the number of fast-forward events performed.
func (k *Kernel) IdleSkips() uint64 { return k.skips }

// canSkip reports whether idle-cycle fast-forwarding is permitted for
// this run: every proc must be hinted and the global kill switch off.
func (k *Kernel) canSkip() bool {
	return k.unhinted == 0 && len(k.hints) > 0 && !idleSkipDisabled.Load()
}

// nextEvent returns the earliest cycle any hinted proc needs, or NoEvent.
// It returns now as soon as any hint demands the current cycle, so the
// common busy case costs one cheap hint call.
func (k *Kernel) nextEvent() uint64 {
	now := k.cycle
	next := NoEvent
	for _, h := range k.hints {
		v := h(now)
		if v <= now {
			return now
		}
		if v < next {
			next = v
		}
	}
	return next
}

// skip fast-forwards n cycles: the cycle counter jumps and each skip
// callback advances its process state as if the cycles had executed.
func (k *Kernel) skip(n uint64) {
	k.cycle += n
	k.skipped += n
	k.skips++
	for _, f := range k.skippers {
		f(n)
	}
}

// Run executes maxCycles cycles, fast-forwarded idle cycles included,
// and returns the number executed.
func (k *Kernel) Run(maxCycles uint64) uint64 {
	k.started = true
	defer k.noteRun()
	canSkip := k.canSkip()
	var n uint64
	for n < maxCycles {
		if canSkip {
			if t := k.nextEvent(); t > k.cycle {
				s := t - k.cycle // NoEvent yields a huge span, clamped below
				if rem := maxCycles - n; s > rem {
					s = rem
				}
				k.skip(s)
				n += s
				continue
			}
		}
		k.Step()
		n++
	}
	return n
}

// RunUntil executes cycles until done returns true (checked after each
// cycle) or maxCycles elapse. It returns the number of
// cycles executed (fast-forwarded idle cycles included) and whether done
// was reached.
//
// Idle skipping only jumps to a *finite* next-event cycle here: done()
// can only change state as a consequence of procs running, so its value
// is constant across skipped cycles — but with no future event at all
// the kernel steps cycle by cycle, preserving the exact cycle count at
// which a pre-satisfied or cycle-dependent done() is honoured.
func (k *Kernel) RunUntil(maxCycles uint64, done func() bool) (uint64, bool) {
	k.started = true
	defer k.noteRun()
	canSkip := k.canSkip()
	var n uint64
	for n < maxCycles {
		if canSkip && n > 0 {
			if t := k.nextEvent(); t != NoEvent && t > k.cycle {
				s := t - k.cycle
				if rem := maxCycles - n; s > rem {
					s = rem
				}
				k.skip(s)
				n += s
				if done() {
					return n, true
				}
				continue
			}
		}
		k.Step()
		n++
		if done() {
			return n, true
		}
	}
	return n, done()
}
