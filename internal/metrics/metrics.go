// Package metrics is the observability layer shared by every
// abstraction level: monotonic counters and histograms for cycles, wait
// states, queue occupancy, retries and errored phases, plus energy
// attributed per phase kind (address / read-data / write-data / error /
// idle) and per slave.
//
// Energy attribution uses the same "energy since last call" discipline
// the paper specifies for the layer-2 power interface, but against the
// non-destructive TotalEnergy reading: at every sampling point the
// delta between the meter's running total and the registry's cursor is
// booked to exactly one phase bucket and one slave bucket. Because the
// cursor always holds the last sampled total verbatim, the attributed
// total equals the meter total bit-for-bit — no energy can escape or be
// double counted — while the per-bucket sums are Kahan-compensated so
// their recombination stays within a couple of ulps of the total.
//
// A nil *Registry is the disabled state: every method is a nil-receiver
// no-op, so instrumented hot paths pay a single predictable branch and
// zero allocations when observability is off.
package metrics

import (
	"math/bits"

	"repro/internal/ecbus"
)

// PhaseKind classifies where a unit of energy or time was spent, at any
// abstraction level.
type PhaseKind int

// Phase kinds. The order is the attribution priority used by the
// per-cycle classifiers of the signal-true layers: a cycle that both
// completes an address phase and delivers a data beat counts as data.
const (
	PhaseAddress PhaseKind = iota
	PhaseReadData
	PhaseWriteData
	PhaseError
	PhaseIdle
	NumPhaseKinds
)

// String returns the phase-kind mnemonic.
func (k PhaseKind) String() string {
	switch k {
	case PhaseAddress:
		return "address"
	case PhaseReadData:
		return "read-data"
	case PhaseWriteData:
		return "write-data"
	case PhaseError:
		return "error"
	case PhaseIdle:
		return "idle"
	default:
		return "invalid"
	}
}

// HistBuckets is the number of power-of-two histogram buckets; bucket i
// counts values v with bits.Len64(v) == i, the last bucket is open.
const HistBuckets = 17

// Histogram is a power-of-two-bucketed histogram of uint64 samples.
type Histogram struct {
	counts      [HistBuckets]uint64
	n, sum, max uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	b := bits.Len64(v)
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	h.counts[b]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// HistogramSnapshot is an immutable copy of a histogram.
type HistogramSnapshot struct {
	Counts [HistBuckets]uint64
	Count  uint64
	Sum    uint64
	Max    uint64
}

// Mean returns the arithmetic mean of the recorded samples (0 if none).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

func (h *Histogram) snapshot() HistogramSnapshot {
	return HistogramSnapshot{Counts: h.counts, Count: h.n, Sum: h.sum, Max: h.max}
}

// kahan is a compensated accumulator: the running error of each
// addition is carried so a bucket's sum tracks the exact sum of its
// deltas to within one ulp regardless of sample count.
type kahan struct{ sum, c float64 }

func (k *kahan) add(v float64) {
	y := v - k.c
	t := k.sum + y
	k.c = (t - k.sum) - y
	k.sum = t
}

// FidelityCounters attributes a multi-fidelity sweep's work between
// the analytic screen and the exact confirmation pass: configuration
// counts plus wall-clock nanoseconds per phase. The zero value means
// the run was not a multi-fidelity sweep and nothing is reported.
type FidelityCounters struct {
	Screened     uint64 // configurations evaluated analytically
	Pruned       uint64 // configurations dropped by ε-domination
	Confirmed    uint64 // configurations confirmed exactly
	ScreenNanos  uint64 // wall clock spent screening
	ConfirmNanos uint64 // wall clock spent confirming
}

// ArbCounters aggregates the multi-master arbitration activity of a
// run: committed grants, grant attempts the bus refused, contention
// windows (cycles with more than one requester), and the request/grant
// wire energy. The zero value means the run was single-master and
// nothing is reported.
type ArbCounters struct {
	Grants      uint64
	GrantWaits  uint64
	Contentions uint64
	EnergyJ     float64
}

// TearCounters records a run's card-tear outcome: whether the supply
// was cut, where, and how much corruption it left. The zero value
// means the run was never torn and nothing is reported.
type TearCounters struct {
	Torn         uint64 // 1 if the monitor latched
	CutCycle     uint64 // cycle the supply died at
	CutOp        uint64 // NVM programming-op ordinal the cut landed in (0 = cycle/joule trigger)
	CorruptWords uint64 // words left indeterminate by the partial write
}

// JournalCounters aggregates the transaction journal's activity — the
// write-path traffic and the power-up replay with its per-phase energy
// attribution. The phase figures are exact deltas of shared meter
// samples (see journal.Recovery), so they telescope bit-exactly. The
// zero value means the run was unjournaled and nothing is reported.
type JournalCounters struct {
	Records         uint64 // journal record words written
	Markers         uint64 // commit markers written
	Commits         uint64 // transactions made durable
	InPlaceWrites   uint64 // in-place data writes
	FramesReplayed  uint64 // frames the power-up scan found valid
	FramesDiscarded uint64 // torn tail frames discarded
	WordsApplied    uint64 // words rewritten by replay
	ScanJ           float64
	ApplyJ          float64
	FinalizeJ       float64
}

// FaultCounters aggregates injected-fault events observed by
// fault.Injector instances attached to the registry.
type FaultCounters struct {
	ReadErrors  uint64
	WriteErrors uint64
	Corruptions uint64
	ExtraWaits  uint64 // total injected wait cycles
	Stretched   uint64 // busy windows stretched
}

type slaveAcc struct {
	name     string
	energy   kahan
	accesses uint64
}

// Registry collects one run's metrics for one bus model instance. All
// methods are safe on a nil receiver (and then do nothing), which is
// the disabled state instrumented code paths are gated on.
type Registry struct {
	layer  string
	master string

	// Kernel accounting, recorded once at end of run.
	cycles    uint64
	skipped   uint64
	idleSkips uint64
	procsRun  uint64

	// Transaction counters.
	accepted  uint64
	completed uint64
	errored   uint64
	rejected  uint64
	retries   uint64
	beats     uint64
	waits     uint64

	occ     [ecbus.NumCategories]Histogram
	latency Histogram

	// Energy attribution state. cursor is the meter total at the last
	// sample; carry holds the previous cycle's classification so
	// trailing strobe falls land in the phase that raised the strobe.
	cursor float64
	carry  PhaseKind
	phase  [NumPhaseKinds]kahan
	slaves []slaveAcc
	unattr kahan

	fault    FaultCounters
	fidelity FidelityCounters
	arb      ArbCounters
	tear     TearCounters
	journal  JournalCounters
}

// New creates an enabled registry labelled with the abstraction layer
// it will observe (e.g. "L0", "TL1", "TL2").
func New(layer string) *Registry {
	return &Registry{layer: layer, carry: PhaseIdle}
}

// SetMaster labels the master feeding this registry.
func (r *Registry) SetMaster(name string) {
	if r == nil {
		return
	}
	r.master = name
}

// BindSlaves sizes the per-slave energy table. The bus models call this
// from AttachMetrics with the address map's slave names in decode
// order, so the slave index used on the hot path is the map index.
func (r *Registry) BindSlaves(names ...string) {
	if r == nil {
		return
	}
	r.slaves = make([]slaveAcc, len(names))
	for i, n := range names {
		r.slaves[i].name = n
	}
}

// TxAccepted records a transaction accepted into the bus together with
// the outstanding-queue occupancy of its category after acceptance.
func (r *Registry) TxAccepted(cat ecbus.Category, occupancy int) {
	if r == nil {
		return
	}
	r.accepted++
	if cat >= 0 && cat < ecbus.NumCategories {
		r.occ[cat].Observe(uint64(occupancy))
	}
}

// TxRejected records n refusals of a transaction the bus could not
// accept (queue full); the master re-presents it each cycle, and a
// master sleeping through skipped cycles books their refusals at once.
func (r *Registry) TxRejected(n uint64) {
	if r == nil {
		return
	}
	r.rejected += n
}

// TxRetired records one completed attempt of a transaction: counters,
// completion latency and the per-slave access count. slave is the
// address-map index, or -1 for decode misses.
func (r *Registry) TxRetired(tr *ecbus.Transaction, slave int, errored bool) {
	if r == nil {
		return
	}
	if errored {
		r.errored++
	} else {
		r.completed++
	}
	if tr.DataCycle >= tr.IssueCycle {
		r.latency.Observe(tr.DataCycle - tr.IssueCycle)
	}
	if slave >= 0 && slave < len(r.slaves) {
		r.slaves[slave].accesses++
	}
}

// Retries adds master-side re-issues of errored transactions.
func (r *Registry) Retries(n uint64) {
	if r == nil {
		return
	}
	r.retries += n
}

// Beat records one delivered data beat.
func (r *Registry) Beat() {
	if r == nil {
		return
	}
	r.beats++
}

// Beats records n delivered data beats at once (layer 2 books a whole
// data phase in one call).
func (r *Registry) Beats(n int) {
	if r == nil || n <= 0 {
		return
	}
	r.beats += uint64(n)
}

// WaitCycle records one wait-state cycle observed on the bus.
func (r *Registry) WaitCycle() {
	if r == nil {
		return
	}
	r.waits++
}

// WaitCycles records n wait-state cycles at once.
func (r *Registry) WaitCycles(n uint64) {
	if r == nil {
		return
	}
	r.waits += n
}

// EnergySample attributes the energy dissipated since the previous
// sample — the delta between total (the meter's running total) and the
// registry cursor — to one phase bucket and one slave bucket. kind is
// the sampling point's classification of the interval; PhaseIdle
// intervals inherit the previous sample's classification once (the
// trailing-edge rule: strobe falls are priced one cycle after the
// phase that raised them). slave < 0 books the delta as unattributed.
func (r *Registry) EnergySample(kind PhaseKind, slave int, total float64) {
	if r == nil {
		return
	}
	d := total - r.cursor
	r.cursor = total
	if kind == PhaseIdle {
		kind, r.carry = r.carry, PhaseIdle
	} else {
		r.carry = kind
	}
	if d == 0 {
		return
	}
	r.phase[kind].add(d)
	if slave >= 0 && slave < len(r.slaves) {
		r.slaves[slave].energy.add(d)
	} else {
		r.unattr.add(d)
	}
}

// Finalize books any energy the meter accumulated after the last
// sampling point into the idle bucket and advances the cursor to the
// final total. Call it once with the meter's final TotalEnergy before
// taking the snapshot; afterwards Snapshot().TotalEnergyJ equals the
// meter total exactly (bit-for-bit).
func (r *Registry) Finalize(total float64) {
	if r == nil {
		return
	}
	d := total - r.cursor
	r.cursor = total
	if d != 0 {
		r.phase[PhaseIdle].add(d)
		r.unattr.add(d)
	}
}

// RecordKernel stores the kernel's cycle accounting for the run. It
// implements sim.RunObserver, so a registry can be handed straight to
// Kernel.SetRunObserver.
func (r *Registry) RecordKernel(cycles, skippedCycles, idleSkips, procsRun uint64) {
	if r == nil {
		return
	}
	r.cycles = cycles
	r.skipped = skippedCycles
	r.idleSkips = idleSkips
	r.procsRun = procsRun
}

// FidelityScreen records the analytic screening pass of a
// multi-fidelity sweep: configurations screened, configurations pruned
// by ε-domination, and the wall-clock nanoseconds spent.
func (r *Registry) FidelityScreen(screened, pruned, nanos uint64) {
	if r == nil {
		return
	}
	r.fidelity.Screened += screened
	r.fidelity.Pruned += pruned
	r.fidelity.ScreenNanos += nanos
}

// FidelityConfirm records the exact confirmation pass of a
// multi-fidelity sweep.
func (r *Registry) FidelityConfirm(confirmed, nanos uint64) {
	if r == nil {
		return
	}
	r.fidelity.Confirmed += confirmed
	r.fidelity.ConfirmNanos += nanos
}

// Arbitration books a run's multi-master arbitration totals: grants
// committed, grant attempts refused by the bus, contention windows and
// the arbitration-wire energy.
func (r *Registry) Arbitration(grants, grantWaits, contentions uint64, energyJ float64) {
	if r == nil {
		return
	}
	r.arb.Grants += grants
	r.arb.GrantWaits += grantWaits
	r.arb.Contentions += contentions
	r.arb.EnergyJ += energyJ
}

// FaultReadError counts one injected read error.
func (r *Registry) FaultReadError() {
	if r == nil {
		return
	}
	r.fault.ReadErrors++
}

// FaultWriteError counts one injected write error.
func (r *Registry) FaultWriteError() {
	if r == nil {
		return
	}
	r.fault.WriteErrors++
}

// FaultCorruption counts one injected data corruption.
func (r *Registry) FaultCorruption() {
	if r == nil {
		return
	}
	r.fault.Corruptions++
}

// FaultExtraWait counts n injected wait cycles.
func (r *Registry) FaultExtraWait(n int) {
	if r == nil || n <= 0 {
		return
	}
	r.fault.ExtraWaits += uint64(n)
}

// FaultStretch counts one stretched busy window.
func (r *Registry) FaultStretch(n int) {
	if r == nil || n <= 0 {
		return
	}
	r.fault.Stretched += uint64(n)
}

// TearCut books the card-tear outcome: the cut position and the number
// of words the partial write left indeterminate.
func (r *Registry) TearCut(cutCycle, cutOp, corruptWords uint64) {
	if r == nil {
		return
	}
	r.tear.Torn = 1
	r.tear.CutCycle = cutCycle
	r.tear.CutOp = cutOp
	r.tear.CorruptWords += corruptWords
}

// JournalActivity books the write-path journal traffic of a run.
func (r *Registry) JournalActivity(records, markers, commits, inPlace uint64) {
	if r == nil {
		return
	}
	r.journal.Records += records
	r.journal.Markers += markers
	r.journal.Commits += commits
	r.journal.InPlaceWrites += inPlace
}

// JournalReplay books a power-up replay: frame outcomes plus the
// per-phase recovery energy. The phase figures are stored verbatim —
// they are exact meter deltas and must stay bit-identical to the
// journal.Recovery that produced them.
func (r *Registry) JournalReplay(replayed, discarded, wordsApplied uint64, scanJ, applyJ, finalizeJ float64) {
	if r == nil {
		return
	}
	r.journal.FramesReplayed += replayed
	r.journal.FramesDiscarded += discarded
	r.journal.WordsApplied += wordsApplied
	r.journal.ScanJ = scanJ
	r.journal.ApplyJ = applyJ
	r.journal.FinalizeJ = finalizeJ
}
