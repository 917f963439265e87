// Package fault is a deterministic fault-injection subsystem for the
// hierarchical EC bus models: it wraps any ecbus.Slave and perturbs its
// behaviour per a Plan — scripted or seeded-random bus errors on read
// and write data beats, wait-state storms through the dynamic-wait
// interface, stretching of EEPROM/Flash self-timed busy windows, and
// transient data corruption on error-flagged read beats.
//
// The EC interface the paper models (§3.1) carries a dedicated error
// indication on each unidirectional data bus, and slave-inserted wait
// states are the main source of timing divergence between the layers;
// this package turns those corner cases from dead code into an
// adversarial harness. The cross-layer equivalence property extends to
// faults: under the same plan, the layer-0, layer-1 and layer-2 models
// must report identical per-transaction outcomes and retry counts.
//
// # Determinism across layers
//
// The three bus models call the slave interface with different timing:
// layer 0 and layer 1 deliver one data beat per cycle, layer 2 performs
// the whole block at data-phase completion, and layer 2 samples dynamic
// wait states earlier than the others. Every injection decision is
// therefore a pure function of the access itself, never of simulation
// time:
//
//   - Data-beat errors depend on (operation, word address, per-word
//     access ordinal). Each direction of the EC interface serves its
//     queue strictly in order at every layer, so the n-th read (or
//     write) of a given word is the same logical beat everywhere —
//     including retries, which become ordinal n+1.
//   - Injected wait storms depend on (kind, address) only, so it does
//     not matter at which cycle a layer samples them.
//
// Only the busy-window stretch multiplies state the wrapped slave
// derives from the clock; it inherits the layer-2 sampling semantics of
// the underlying DynamicWaiter.
//
// Ordinal bookkeeping is per-injector, and an injector wraps exactly
// one slave of one address map — it is per-run state, never shared.
// Batched estimation (internal/batch) relies on this: each lane builds
// its own fault-wrapped map, so every run carries lane-local per-word
// ordinal streams, and a run batched next to 63 neighbours observes
// exactly the ordinal sequence — hence the fault schedule — of its own
// serial run. The golden fault-ordinal test pins that equivalence.
package fault

import (
	"fmt"

	"repro/internal/ecbus"
	"repro/internal/metrics"
)

// Op is the slave word-interface operation an injection targets.
type Op int

// Operations. OpRead covers both instruction fetches and data reads —
// the slave interface does not distinguish them.
const (
	OpRead Op = iota
	OpWrite
)

// String returns the operation name.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// ScriptedFault errors a deterministic window of accesses to one bus
// word: the first After accesses of the given operation succeed, then
// Count consecutive accesses fail (Count == 0 means every access from
// After on fails). Scripted faults are exact — they fire identically at
// every abstraction layer — and compose with the seeded-random knobs.
type ScriptedFault struct {
	Op    Op
	Addr  uint64 // word-aligned byte address of the failing beat
	After uint32 // accesses that succeed before the fault window opens
	Count uint32 // faulted accesses in the window; 0 = unbounded
}

// Plan parameterizes an Injector. The zero Plan injects nothing.
type Plan struct {
	// Seed drives the pseudo-random decisions. A zero seed disables the
	// random knobs (scripted faults still fire), so an explicitly seeded
	// plan is never confused with an unset one.
	Seed uint64

	// ReadErrPermille / WriteErrPermille are the per-beat probabilities
	// (in 1/1000) that a read or write data beat fails with a bus error.
	ReadErrPermille  int
	WriteErrPermille int

	// WaitPermille is the per-address probability (in 1/1000) that an
	// address phase to that address suffers an injected wait-state storm
	// of 1..MaxExtraWait extra cycles.
	WaitPermille int
	MaxExtraWait int

	// CorruptMask, when nonzero, is XORed onto the data of every
	// error-flagged read beat — the transient corruption that the error
	// wire tells the master not to consume.
	CorruptMask uint32

	// BusyStretch multiplies the wrapped slave's own dynamic wait
	// (EEPROM/Flash self-timed busy windows) by 1+BusyStretch,
	// modelling marginal memory cells that need longer programming.
	BusyStretch int

	// Scripted lists exact per-word fault windows.
	Scripted []ScriptedFault
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool {
	return p.Seed == 0 && p.BusyStretch == 0 && len(p.Scripted) == 0
}

// WithoutReadErrors returns a copy of the plan with read-beat error
// injection removed: the random read permille, the corruption mask and
// any scripted read windows. Read-beat errors are only sound on slaves
// whose reads are idempotent (memories): the injector flags the error
// after the wrapped read executed, so a retry replays the access — on a
// register with a destructive read (a pop latch, a FIFO) that would
// duplicate the side effect, a behaviour of the device rather than the
// bus. Wait storms, busy stretching and write errors (whose faulted
// beats never commit) are kept.
func (p Plan) WithoutReadErrors() Plan {
	p.ReadErrPermille = 0
	p.CorruptMask = 0
	if len(p.Scripted) > 0 {
		kept := make([]ScriptedFault, 0, len(p.Scripted))
		for _, s := range p.Scripted {
			if s.Op != OpRead {
				kept = append(kept, s)
			}
		}
		p.Scripted = kept
	}
	return p
}

// Validate checks the knobs for consistency.
func (p Plan) Validate() error {
	perm := func(name string, v int) error {
		if v < 0 || v > 1000 {
			return fmt.Errorf("fault: %s %d outside [0,1000]", name, v)
		}
		return nil
	}
	if err := perm("ReadErrPermille", p.ReadErrPermille); err != nil {
		return err
	}
	if err := perm("WriteErrPermille", p.WriteErrPermille); err != nil {
		return err
	}
	if err := perm("WaitPermille", p.WaitPermille); err != nil {
		return err
	}
	if p.MaxExtraWait < 0 {
		return fmt.Errorf("fault: negative MaxExtraWait %d", p.MaxExtraWait)
	}
	if p.WaitPermille > 0 && p.MaxExtraWait == 0 {
		return fmt.Errorf("fault: WaitPermille %d with MaxExtraWait 0", p.WaitPermille)
	}
	if p.BusyStretch < 0 {
		return fmt.Errorf("fault: negative BusyStretch %d", p.BusyStretch)
	}
	for i, s := range p.Scripted {
		if s.Addr&3 != 0 {
			return fmt.Errorf("fault: scripted[%d] address %#x not word aligned", i, s.Addr)
		}
		if s.Op != OpRead && s.Op != OpWrite {
			return fmt.Errorf("fault: scripted[%d] invalid op %d", i, int(s.Op))
		}
	}
	return nil
}

// Injector wraps an ecbus.Slave and applies a Plan. It implements
// ecbus.Slave and ecbus.DynamicWaiter, and forwards the optional
// EnergyReporter extension, so it drops into any address map in place
// of the wrapped slave. An Injector belongs to one simulation context
// (it keeps per-word access counters); build a fresh one per run.
type Injector struct {
	inner ecbus.Slave
	plan  Plan

	// Ordinal bookkeeping: accesses so far per word, in arrays indexed
	// by word offset from base and sized to the slave's range (the bus
	// forwards only decoded, in-range beats). passive marks an empty
	// plan: no decision ever depends on the ordinals, so the bookkeeping
	// (unobservable in that case) is skipped and data beats forward
	// straight to the wrapped slave.
	passive bool
	base    uint64
	nRead   []uint32
	nWrite  []uint32

	mx *metrics.Registry
}

// Wrap builds an injector applying plan to s. It panics on an invalid
// plan — plans are built by tests and tools, not parsed from input.
func Wrap(s ecbus.Slave, plan Plan) *Injector {
	if err := plan.Validate(); err != nil {
		panic(err)
	}
	in := &Injector{inner: s, plan: plan, passive: plan.Empty()}
	if !in.passive {
		cfg := s.Config()
		in.base = cfg.Base &^ 3
		words := (cfg.End() - in.base + 3) / 4
		in.nRead = make([]uint32, words)
		in.nWrite = make([]uint32, words)
	}
	return in
}

// ordinal returns the access count so far for (op, word) and increments
// it — the per-word ordinal stream both beatFaulty and the cross-layer
// determinism contract are defined over.
func (in *Injector) ordinal(op Op, word uint64) uint32 {
	counts := in.nWrite
	if op == OpRead {
		counts = in.nRead
	}
	off := (word - in.base) / 4
	n := counts[off]
	counts[off] = n + 1
	return n
}

// Passthrough implements ecbus.Passthrough: an injector with an empty
// plan never perturbs an access — data beats forward verbatim and
// ExtraWait reduces to the wrapped slave's own dynamic wait (no seed,
// no stretch) — so callers may bypass it entirely.
func (in *Injector) Passthrough() (ecbus.Slave, bool) { return in.inner, in.passive }

// AttachMetrics counts every injection in the registry's fault counters
// (nil detaches), so a run report shows injections alongside the
// bus-side retries and errored phases they caused. The error and
// corruption counts are layer-invariant (one per faulted beat); the
// wait counts are diagnostics only, as layers may sample the
// dynamic-wait interface a different number of times.
func (in *Injector) AttachMetrics(reg *metrics.Registry) *Injector {
	in.mx = reg
	return in
}

// Config implements ecbus.Slave.
func (in *Injector) Config() ecbus.SlaveConfig { return in.inner.Config() }

// AccessEnergy forwards the wrapped slave's characterized access energy
// (0 when the slave reports none).
func (in *Injector) AccessEnergy(k ecbus.Kind) float64 {
	if r, ok := in.inner.(ecbus.EnergyReporter); ok {
		return r.AccessEnergy(k)
	}
	return 0
}

// splitmix64 is the avalanche mixer behind every pseudo-random decision:
// small, well-distributed, and trivially reproducible in any language.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Decision salts keep the independent random streams uncorrelated.
const (
	saltReadErr  = 0x5EED_0001
	saltWriteErr = 0x5EED_0002
	saltWaitHit  = 0x5EED_0003
	saltWaitLen  = 0x5EED_0004
	saltCorrupt  = 0x5EED_0005
)

// roll returns a uniform value in [0, 1000) for the salted key.
func (in *Injector) roll(salt uint64, word uint64, n uint32) uint64 {
	return splitmix64(in.plan.Seed^splitmix64(salt^word<<20^uint64(n))) % 1000
}

// beatFaulty decides whether the n-th access of op to word fails.
func (in *Injector) beatFaulty(op Op, word uint64, n uint32) bool {
	for _, s := range in.plan.Scripted {
		if s.Op == op && s.Addr == word && n >= s.After && (s.Count == 0 || n < s.After+s.Count) {
			return true
		}
	}
	if in.plan.Seed == 0 {
		return false
	}
	switch op {
	case OpRead:
		return in.plan.ReadErrPermille > 0 && in.roll(saltReadErr, word, n) < uint64(in.plan.ReadErrPermille)
	default:
		return in.plan.WriteErrPermille > 0 && in.roll(saltWriteErr, word, n) < uint64(in.plan.WriteErrPermille)
	}
}

// ReadWord implements ecbus.Slave: the wrapped read, plus injected
// errors and — on error-flagged beats — transient data corruption. The
// corrupted word is what the slave actually drives on the read data bus
// during the errored beat, so it is returned (and lands in the
// transaction payload) even though the error tells the master not to
// consume it.
func (in *Injector) ReadWord(addr uint64, w ecbus.Width) (uint32, bool) {
	if in.passive {
		return in.inner.ReadWord(addr, w)
	}
	word := addr &^ 3
	n := in.ordinal(OpRead, word)
	data, ok := in.inner.ReadWord(addr, w)
	if !ok {
		return data, false
	}
	if in.beatFaulty(OpRead, word, n) {
		in.mx.FaultReadError()
		if in.plan.CorruptMask != 0 {
			data ^= in.plan.CorruptMask
			in.mx.FaultCorruption()
		}
		return data, false
	}
	return data, true
}

// WriteWord implements ecbus.Slave. An injected write error suppresses
// the underlying write entirely — the flagged beat never commits, as on
// a device that detects the failure before the array update.
func (in *Injector) WriteWord(addr uint64, data uint32, w ecbus.Width) bool {
	if in.passive {
		return in.inner.WriteWord(addr, data, w)
	}
	word := addr &^ 3
	n := in.ordinal(OpWrite, word)
	if in.beatFaulty(OpWrite, word, n) {
		in.mx.FaultWriteError()
		return false
	}
	return in.inner.WriteWord(addr, data, w)
}

// ExtraWait implements ecbus.DynamicWaiter: the wrapped slave's dynamic
// wait (stretched by BusyStretch) plus the injected wait-state storm.
// The storm term is a pure function of (kind, address) so every layer
// samples the same value regardless of when it asks.
func (in *Injector) ExtraWait(k ecbus.Kind, addr uint64) int {
	base := ecbus.ExtraWaitOf(in.inner, k, addr)
	if base > 0 && in.plan.BusyStretch > 0 {
		add := base * in.plan.BusyStretch
		in.mx.FaultStretch(add)
		base += add
	}
	if in.plan.Seed != 0 && in.plan.WaitPermille > 0 {
		key := addr<<2 | uint64(k)
		if in.roll(saltWaitHit, key, 0) < uint64(in.plan.WaitPermille) {
			storm := 1 + int(in.roll(saltWaitLen, key, 1))%in.plan.MaxExtraWait
			in.mx.FaultExtraWait(storm)
			base += storm
		}
	}
	return base
}
