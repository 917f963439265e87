// Package batch is a structure-of-arrays (SoA) execution engine that
// steps N independent corpus runs — different stimuli, same layer,
// organization and address-map configuration — through one simulation
// lattice together (the software analogue of hardware-accelerated power
// estimation: many stimulus vectors against one instrumented circuit).
//
// # Lane model
//
// Each concurrent run occupies one lane. The same single-bit wire of
// all lanes is packed into one uint64 lane word, one bit per lane, so
// transition counting on the layer-0/TL1 hot path is XOR +
// bits.OnesCount64 and the per-signal energy constants are fetched once
// per lane word instead of once per run. Multi-bit signals (address,
// data, byte enables, decoder select) stay one value per lane with a
// changed-lane mask, so only lanes that actually drove a new value are
// priced. The per-cycle dispatch — master tick, strobe release, bus
// units, pricing — runs once per lockstep cycle for the whole batch,
// amortizing what the serial path pays per run.
//
// # Divergence and refill
//
// Runs finish at different cycles (sparse corpora, retry paths under
// fault plans). An active-lane mask scopes every lattice operation to
// live lanes; a lane whose run completes is harvested, zeroed back to
// the power-on state and refilled from the pending corpus so the
// lattice stays full until the corpus drains.
//
// # Equivalence contract
//
// The engine is bit-exact, not approximately equal: a batch of one
// produces IEEE-754 bit-identical energies, cycle counts and
// transaction results to the serial reference path, and every lane of a
// batch of N is bit-identical to its own serial run. The golden tests
// in this package and in internal/bench enforce that contract across
// the corpus x layer matrix, clean and under fault plans. Exactness
// holds because each lane replays the serial model's float operations
// in the serial order: per-signal energies accumulate in dedicated
// per-lane accumulators and per-cycle sums add signal terms in ascending
// signal order. Clock and leakage depend on the cycle count alone, so
// no lane accumulates them: a finished run reads both from the shared
// gatepower.CycleSum tables the serial estimator reads, which hold the
// bits of one addition per cycle from power-on.
package batch

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/gatepower"
	"repro/internal/sim"
)

// MaxWidth is the lane capacity of the lattice: one bit of a packed
// lane word per run.
const MaxWidth = 64

// wheelSize is the timing wheel's horizon in ticks (a power of two).
// Wait states are bounded by slave configuration plus dynamic extra
// waits, both far below this; only scripted not-before gaps can exceed
// it, and those take the far-wake path.
const wheelSize = 512

// Config describes the shared organization all lanes simulate.
type Config struct {
	// Layer selects the bus model: 0 (signal/cycle-true + gate-level
	// energy) or 1 (cycle-accurate TL + per-transition energy). Layer 2
	// is not batched — its per-phase analytic model is already cheap.
	Layer int

	// Width is the number of concurrent lanes, 1..MaxWidth.
	Width int

	// NewMap builds a fresh address map for one run, including any
	// fault-plan wrapping. Each lane gets its own map, so stateful
	// slave wrappers (fault injectors with per-word access ordinals)
	// are lane-local by construction and batched runs observe exactly
	// the per-run ordinal sequences of serial runs.
	NewMap func() *ecbus.Map

	// Gate is the layer-0 gate-level configuration.
	Gate gatepower.Config

	// Char is the layer-1 characterization table.
	Char gatepower.CharTable

	// Retry is the master's bus-error reaction policy.
	Retry core.RetryPolicy

	// MaxCycles bounds each run (default 10,000,000, the bench bound).
	MaxCycles uint64

	// MaxInFlight limits master pipelining (default 3*MaxOutstanding,
	// the ScriptMaster default).
	MaxInFlight int
}

// Run is one corpus stimulus: the scripted items of a single master.
type Run struct {
	Items []core.Item
}

// Result is the per-run outcome, field-for-field the figures the serial
// bench path reports for the same stimulus.
type Result struct {
	Cycles  uint64
	EnergyJ float64
	Errors  int // transactions errored after exhausting retries
	Retries int // total re-issues
}

// IncompleteError reports a run that did not complete within the
// engine's cycle limit. Run is its index in the EstimateAll input.
type IncompleteError struct {
	Layer, Run int
	MaxCycles  uint64
}

func (e *IncompleteError) Error() string {
	return fmt.Sprintf("batch: layer-%d run %d did not complete within %d cycles", e.Layer, e.Run, e.MaxCycles)
}

// Stats aggregates whole-batch activity; transition totals are counted
// with popcounts over lane words.
type Stats struct {
	Ticks       uint64 // lockstep engine cycles
	LaneCycles  uint64 // simulated cycles summed over lanes (incl. fast-forwarded)
	Skipped     uint64 // idle cycles fast-forwarded per lane
	Slept       uint64 // wait-state cycles slept through per lane
	Transitions uint64 // priced signal transitions across all lanes
	Rises       uint64 // layer-0 rise transitions
	Falls       uint64 // layer-0 fall transitions
}

// Engine is the batched estimator. It is not safe for concurrent use;
// EstimateAll fully resets it, so one engine may run many campaigns
// sequentially.
type Engine struct {
	cfg         Config
	maxCycles   uint64
	maxInFlight int
	skipOK      bool // idle fast-forward allowed (honors sim.IdleSkipDisabled)

	// Lattice. Single-bit signals live one-bit-per-lane in packed lane
	// words; multi-bit signals keep one value per lane plus a
	// changed-lane mask maintained by the drive helpers.
	packed    [ecbus.NumSignals]uint64
	packedOld [ecbus.NumSignals]uint64
	val       [ecbus.NumSignals][MaxWidth]uint64
	old       [ecbus.NumSignals][MaxWidth]uint64
	chMask    [ecbus.NumSignals]uint64

	isPacked [ecbus.NumSignals]bool
	mask     [ecbus.NumSignals]uint64
	sigBits  [ecbus.NumSignals]int

	// Signal IDs split by representation, in ascending order — the
	// pricing passes walk these instead of re-testing isPacked per
	// signal per tick. Pricing order across the split lists still
	// matches the serial ascending-ID order because every signal's
	// energy lands in its own per-lane accumulator; only the per-lane
	// fold (laneEnergy0, priceCycle1's touched fold) fixes the
	// cross-signal addition order, and it walks ascending IDs.
	packedIDs []ecbus.SignalID
	multiIDs  []ecbus.SignalID

	// Layer-0 constants (exact expression shapes of gatepower) and
	// per-lane accumulators mirroring the estimator's per-signal ones.
	bitE     [ecbus.NumSignals]float64
	riseJ    [ecbus.NumSignals]float64 // bitE*KRise: the one-rise energy of a packed wire
	fallJ    [ecbus.NumSignals]float64 // bitE*KFall
	kRise    float64
	kFall    float64
	coupleK  float64
	glitchK  float64
	decJ     float64
	clockSum *gatepower.CycleSum // clock and leakage: read once per run, at harvest
	leakSum  *gatepower.CycleSum
	sigE     [ecbus.NumSignals][MaxWidth]float64
	decE     [MaxWidth]float64

	// Layer-1 constants and accumulators.
	perTransJ [ecbus.NumSignals]float64
	eCycle    [MaxWidth]float64 // this cycle's sum, in ascending signal order
	totalE    [MaxWidth]float64

	lanes    [MaxWidth]lane
	active   uint64
	sleeping uint64 // lanes advancing through wait states until their wake tick
	awake    uint64 // lanes that execute a cycle on the current tick

	// One-shot masks consumed by the next tick's strobe clear: lanes
	// that fell asleep with handshake strobes high. The strobes fall on
	// the first slept cycle — exactly when the serial bus would release
	// them — without the lane waking just to let go of a wire.
	// Address-valid is tracked separately: during a running address
	// phase it is re-driven (held), not released.
	strobeDrop uint64
	avDrop     uint64

	// tick counts engine iterations; sleeping lanes re-enter the pass
	// when it reaches their wake tick. Wakes are scheduled on a timing
	// wheel: slot t&(wheelSize-1) holds the lane mask due at tick t, and
	// wheelSum mirrors slot occupancy one bit per slot so the idle
	// fast-forward finds the next occupied slot with word scans. Lanes
	// whose wake lies beyond the wheel horizon (sparse corpora with long
	// not-before gaps) fall back to the far mask with an exact minimum.
	tick     uint64
	wheel    [wheelSize]uint64
	wheelSum [wheelSize / 64]uint64
	far      uint64
	farMin   uint64

	stats Stats
}

// New validates the configuration and builds an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Layer != 0 && cfg.Layer != 1 {
		return nil, fmt.Errorf("batch: unsupported layer %d (valid layers: 0, 1)", cfg.Layer)
	}
	if cfg.Width < 1 || cfg.Width > MaxWidth {
		return nil, fmt.Errorf("batch: invalid width %d (valid widths: 1..%d)", cfg.Width, MaxWidth)
	}
	if cfg.NewMap == nil {
		return nil, fmt.Errorf("batch: NewMap is required")
	}
	e := &Engine{cfg: cfg, maxCycles: cfg.MaxCycles, maxInFlight: cfg.MaxInFlight}
	if e.maxCycles == 0 {
		e.maxCycles = 10_000_000
	}
	if e.maxInFlight <= 0 {
		e.maxInFlight = 3 * ecbus.MaxOutstanding
	}
	e.skipOK = !sim.IdleSkipDisabled()
	for id := ecbus.SignalID(0); id < ecbus.NumSignals; id++ {
		e.mask[id] = ecbus.MaskOf(id)
		e.sigBits[id] = ecbus.Signals[id].Bits
		e.isPacked[id] = e.sigBits[id] == 1
		if e.isPacked[id] {
			e.packedIDs = append(e.packedIDs, id)
		} else {
			e.multiIDs = append(e.multiIDs, id)
		}
	}
	switch cfg.Layer {
	case 0:
		e.kRise, e.kFall = cfg.Gate.KRise, cfg.Gate.KFall
		e.coupleK, e.glitchK = cfg.Gate.CouplingK, cfg.Gate.GlitchWiresPerAddrBit
		e.clockSum = gatepower.CycleSumOf(cfg.Gate.ClockEnergyPerCycleJ())
		e.leakSum = gatepower.CycleSumOf(cfg.Gate.LeakagePerCycleJ)
		e.decJ = cfg.Gate.DecoderWireEnergyJ()
		for id := ecbus.SignalID(0); id < ecbus.NumSignals; id++ {
			be := cfg.Gate.BitEnergy(id)
			e.bitE[id] = be
			// float64(1)*be*K == be*K bit for bit, and the zero term of
			// the serial two-term sum adds +0.0 — a no-op on the
			// non-negative accumulator — so a packed single-bit rise
			// (fall) prices as one add of riseJ (fallJ).
			e.riseJ[id] = be * e.kRise
			e.fallJ[id] = be * e.kFall
		}
	case 1:
		e.perTransJ = cfg.Char.PerTransitionJ
	}
	return e, nil
}

// Stats returns the accumulated whole-batch activity counters.
func (e *Engine) Stats() Stats { return e.stats }

// EstimateAll runs every corpus stimulus through the lattice and
// returns one Result per run, index-aligned with runs. The engine is
// reset first, so results never depend on a previous campaign — and,
// by the lane-independence of the lattice, never on the batch width.
func (e *Engine) EstimateAll(runs []Run) ([]Result, error) {
	e.reset()
	results := make([]Result, len(runs))
	next := 0
	for li := 0; li < e.cfg.Width && next < len(runs); li++ {
		e.loadRun(li, runs[next], next)
		next++
	}
	for e.active != 0 {
		if e.skipOK {
			e.fastForward()
		}
		e.stats.Ticks++
		e.tick++

		// Wake the sleeping lanes whose next observable event is due.
		// Their wait-state cycles were accounted when they fell asleep
		// (the cycle counter), so no per-tick work remains;
		// waking is one wheel-slot load plus the rare far-lane scan.
		if e.sleeping != 0 {
			slot := e.tick & (wheelSize - 1)
			if m := e.wheel[slot]; m != 0 {
				e.wheel[slot] = 0
				e.wheelSum[slot>>6] &^= 1 << (slot & 63)
				e.sleeping &^= m
			}
			if e.far != 0 && e.tick >= e.farMin {
				e.farMin = ^uint64(0)
				for m := e.far; m != 0; m &= m - 1 {
					li := bits.TrailingZeros64(m)
					if wt := e.lanes[li].wakeTick; wt <= e.tick {
						b := uint64(1) << uint(li)
						e.far &^= b
						e.sleeping &^= b
					} else if wt < e.farMin {
						e.farMin = wt
					}
				}
			}
		}
		e.awake = e.active &^ e.sleeping

		// Strobes release for the whole batch at once. The masters never
		// touch strobe wires, so clearing before the lane pass is the
		// same falling edge the split rising/falling sequence models.
		// Sleeping lanes hold theirs — their bus re-drives the strobe
		// every wait cycle in the serial model, a net hold.
		e.clearStrobes()

		// One pass per lane: harvest/refill, master, then bus units.
		// Lanes are independent, so interleaving lane A's units before
		// lane B's master is invisible; a run found complete here was
		// priced through its final cycle on the previous tick, exactly
		// where the serial master discovers completion.
		for m := e.awake; m != 0; m &= m - 1 {
			li := bits.TrailingZeros64(m)
			ln := &e.lanes[li]
			// cyc == ^0 marks a lane that has not executed its first
			// cycle yet: even an empty run executes one cycle (the serial
			// master needs it to discover it has nothing to issue).
			if ln.cyc != ^uint64(0) && ln.done() {
				results[ln.runIdx] = e.harvest(ln, li)
				e.clearLane(ln, li)
				if next >= len(runs) {
					e.active &^= 1 << uint(li)
					e.awake &^= 1 << uint(li)
					continue
				}
				e.loadRun(li, runs[next], next)
				next++
			} else if ln.cyc+1 >= e.maxCycles {
				return nil, &IncompleteError{Layer: e.cfg.Layer, Run: ln.runIdx, MaxCycles: e.maxCycles}
			}
			ln.cyc++
			e.stats.LaneCycles++
			// Mirror of masterTick's own early return, hoisted to skip
			// the call: a stalled master with nothing to harvest and no
			// retry due is a guaranteed no-op this cycle.
			if ln.finCnt > 0 || !ln.stalled ||
				(len(ln.retryQ) > 0 && ln.retryQ[0].NotBefore <= ln.cyc) {
				e.masterTick(ln, li)
			}
			if !ln.addrQ.Empty() {
				e.addrUnit(ln, li)
			}
			if !ln.readQ.Empty() {
				e.readUnit(ln, li)
			}
			if !ln.writeQ.Empty() {
				e.writeUnit(ln, li)
			}
			// Nothing observable can happen before the lane's next event:
			// wires frozen, units counting down — sleep through it.
			if w := e.nextWake(ln, li); w > ln.cyc+1 {
				e.sleep(ln, li, w)
			}
		}
		if e.active == 0 {
			break
		}

		// Post: price the cycle's transitions across the lattice.
		if e.cfg.Layer == 0 {
			e.priceCycle0()
		} else {
			e.priceCycle1()
		}
	}
	return results, nil
}

// strobeSignals are the pulse wires both bus models default to inactive
// at the top of every cycle; bus-value wires hold their previous values.
var strobeSignals = [...]ecbus.SignalID{
	ecbus.SigAValid, ecbus.SigARdy, ecbus.SigRdVal,
	ecbus.SigWDRdy, ecbus.SigRBErr, ecbus.SigWBErr,
}

// clearStrobes releases every lane's pulse wires in one store per
// signal, holding the sleeping lanes' bits: their serial bus re-drives
// the active strobe every wait cycle, so the hold reproduces the serial
// wire trajectory. Lanes that just fell asleep with strobes left high
// release them here, one tick in (the drop masks are one-shot); the
// address-valid strobe of a sleeping lane is always a running address
// phase's, so only a leftover one (avDrop) falls. Inactive lanes are
// already zero; the pricing pass sees the falls via packed XOR against
// the previous cycle's words.
func (e *Engine) clearStrobes() {
	s := e.sleeping
	d := s &^ e.strobeDrop
	e.packed[ecbus.SigAValid] &= s &^ e.avDrop
	e.packed[ecbus.SigARdy] &= d
	e.packed[ecbus.SigRdVal] &= d
	e.packed[ecbus.SigWDRdy] &= d
	e.packed[ecbus.SigRBErr] &= d
	e.packed[ecbus.SigWBErr] &= d
	e.strobeDrop, e.avDrop = 0, 0
}

// sleep advances a lane through its wait states at the moment it falls
// asleep: the cycle counter jumps to the eve of the wake cycle — the
// slept cycles' clock and leakage come with it, since harvest reads both
// at the final cycle count — and the lane leaves the tick loop until its
// wake tick. Its lattice wires stay frozen (clearStrobes holds them), so
// the intervening ticks price zero transitions for it; a slept wait
// state costs nothing at all per tick, where the serial models burn a
// full kernel cycle (FSM poll + estimator observation finding no
// transitions) or an idle-skip callback on it.
func (e *Engine) sleep(ln *lane, li int, w uint64) {
	k := w - ln.cyc - 1
	ln.cyc = w - 1
	ln.wakeTick = e.tick + k + 1
	bit := uint64(1) << uint(li)
	e.sleeping |= bit
	if k+1 < wheelSize {
		slot := ln.wakeTick & (wheelSize - 1)
		e.wheel[slot] |= bit
		e.wheelSum[slot>>6] |= 1 << (slot & 63)
	} else {
		e.far |= bit
		if ln.wakeTick < e.farMin {
			e.farMin = ln.wakeTick
		}
	}
	// Strobes left high fall on the first slept cycle: flag them for the
	// next strobe clear instead of keeping the lane up one more cycle.
	if (e.packed[ecbus.SigARdy]|e.packed[ecbus.SigRdVal]|
		e.packed[ecbus.SigWDRdy]|e.packed[ecbus.SigRBErr]|
		e.packed[ecbus.SigWBErr])&bit != 0 {
		e.strobeDrop |= bit
	}
	if e.packed[ecbus.SigAValid]&bit != 0 && ln.addrQ.Empty() {
		e.avDrop |= bit
	}
	e.stats.LaneCycles += k
	e.stats.Slept += k
}

// fastForward jumps the tick counter across ticks in which every live
// lane is asleep: each slept lane's cycles were accounted when it fell
// asleep, its wires are frozen, and the strobe clear holds sleeping
// lanes' bits — so the skipped ticks are pure no-ops for the lattice
// and the accumulated bits.
func (e *Engine) fastForward() {
	if e.active&^e.sleeping != 0 || e.sleeping == 0 {
		return
	}
	if e.strobeDrop|e.avDrop != 0 {
		return // the next tick's strobe clear releases wires — an energy event
	}
	nw := e.nextWheelTick()
	if e.far != 0 && e.farMin < nw {
		nw = e.farMin
	}
	if nw <= e.tick+1 {
		return
	}
	k := nw - e.tick - 1
	e.tick += k
	e.stats.Skipped += k
}

// nextWheelTick returns the tick of the first occupied wheel slot after
// the current tick, scanning the occupancy bitmap one word at a time.
// Landing short of a lane's wake tick is safe (the tick executes as an
// empty no-op and the scan resumes); landing past one never happens —
// the scan starts at the next slot and takes the first occupied one.
func (e *Engine) nextWheelTick() uint64 {
	start := (e.tick + 1) & (wheelSize - 1)
	wi := start >> 6
	word := e.wheelSum[wi] &^ (1<<(start&63) - 1)
	for i := 0; ; i++ {
		if word != 0 {
			slot := wi<<6 + uint64(bits.TrailingZeros64(word))
			return e.tick + 1 + ((slot - start) & (wheelSize - 1))
		}
		if i == len(e.wheelSum) {
			return ^uint64(0) // empty wheel: every sleeper is a far lane
		}
		wi = (wi + 1) & uint64(len(e.wheelSum)-1)
		word = e.wheelSum[wi]
	}
}

// harvest reads one finished run's results out of the lattice.
func (e *Engine) harvest(ln *lane, li int) Result {
	r := Result{Cycles: ln.cyc + 1, Errors: ln.errors, Retries: ln.retries}
	if e.cfg.Layer == 0 {
		r.EnergyJ = e.laneEnergy0(li, r.Cycles)
	} else {
		r.EnergyJ = e.totalE[li]
	}
	return r
}

// laneEnergy0 totals one lane's layer-0 energy over its cycles in the
// exact summation order of gatepower's TotalEnergy: interface signals
// ascending, then decoder select, decoder glitching, clock tree, leakage.
func (e *Engine) laneEnergy0(li int, cycles uint64) float64 {
	var sum float64
	for id := ecbus.SignalID(0); id < ecbus.SigSel; id++ {
		sum += e.sigE[id][li]
	}
	return sum + e.sigE[ecbus.SigSel][li] + e.decE[li] + e.clockSum.Sum(cycles) + e.leakSum.Sum(cycles)
}

// loadRun installs a pending run into a cleared lane. The lane's
// all-zero wires are the power-on state — the same reset reference a
// fresh serial run observes.
func (e *Engine) loadRun(li int, run Run, idx int) {
	ln := &e.lanes[li]
	ln.runIdx = idx
	ln.items = run.Items
	ln.cyc = ^uint64(0) // first tick pre-increments to cycle 0
	ln.m = e.cfg.NewMap()
	e.active |= 1 << uint(li)
}

// clearLane zeroes one lane's lattice column and bookkeeping. Both the
// current and previous values are cleared together, so the next run
// starts from the power-on state without phantom transitions.
func (e *Engine) clearLane(ln *lane, li int) {
	bit := uint64(1) << uint(li)
	for id := range e.packed {
		e.packed[id] &^= bit
		e.packedOld[id] &^= bit
		e.chMask[id] &^= bit
		e.val[id][li] = 0
		e.old[id][li] = 0
		e.sigE[id][li] = 0
	}
	e.decE[li] = 0
	e.eCycle[li], e.totalE[li] = 0, 0
	e.sleeping &^= bit
	*ln = lane{retryQ: ln.retryQ[:0]}
}

// reset returns the whole engine to its post-construction state.
func (e *Engine) reset() {
	for li := range e.lanes {
		e.clearLane(&e.lanes[li], li)
	}
	e.active = 0
	e.sleeping, e.awake = 0, 0
	e.strobeDrop, e.avDrop = 0, 0
	e.tick = 0
	e.wheel = [wheelSize]uint64{}
	e.wheelSum = [wheelSize / 64]uint64{}
	e.far, e.farMin = 0, ^uint64(0)
	e.stats = Stats{}
}
