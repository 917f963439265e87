package metrics

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/ecbus"
)

// SlaveSnapshot is one slave's share of a run.
type SlaveSnapshot struct {
	Name     string
	EnergyJ  float64
	Accesses uint64
}

// Snapshot is an immutable copy of a registry's state, the unit the
// report pipeline renders and diffs.
type Snapshot struct {
	Layer  string
	Master string

	Cycles        uint64
	SkippedCycles uint64
	IdleSkips     uint64
	ProcsRun      uint64

	Accepted   uint64
	Completed  uint64
	Errored    uint64
	Rejected   uint64
	Retries    uint64
	Beats      uint64
	WaitCycles uint64

	// EnergyJ holds the per-phase-kind attribution; TotalEnergyJ is the
	// registry cursor, i.e. the meter total at Finalize, bit-for-bit.
	EnergyJ       [NumPhaseKinds]float64
	TotalEnergyJ  float64
	Slaves        []SlaveSnapshot
	UnattributedJ float64

	Occupancy [ecbus.NumCategories]HistogramSnapshot
	Latency   HistogramSnapshot

	Fault    FaultCounters
	Fidelity FidelityCounters
	Arb      ArbCounters
	Tear     TearCounters
	Journal  JournalCounters
}

// Snapshot returns a copy of the registry's current state. Call
// Finalize first so the energy attribution covers the whole run.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Layer:  r.layer,
		Master: r.master,

		Cycles:        r.cycles,
		SkippedCycles: r.skipped,
		IdleSkips:     r.idleSkips,
		ProcsRun:      r.procsRun,

		Accepted:   r.accepted,
		Completed:  r.completed,
		Errored:    r.errored,
		Rejected:   r.rejected,
		Retries:    r.retries,
		Beats:      r.beats,
		WaitCycles: r.waits,

		TotalEnergyJ:  r.cursor,
		UnattributedJ: r.unattr.sum,
		Latency:       r.latency.snapshot(),
		Fault:         r.fault,
		Fidelity:      r.fidelity,
		Arb:           r.arb,
		Tear:          r.tear,
		Journal:       r.journal,
	}
	for k := 0; k < int(NumPhaseKinds); k++ {
		s.EnergyJ[k] = r.phase[k].sum
	}
	for c := 0; c < int(ecbus.NumCategories); c++ {
		s.Occupancy[c] = r.occ[c].snapshot()
	}
	s.Slaves = make([]SlaveSnapshot, len(r.slaves))
	for i := range r.slaves {
		s.Slaves[i] = SlaveSnapshot{
			Name:     r.slaves[i].name,
			EnergyJ:  r.slaves[i].energy.sum,
			Accesses: r.slaves[i].accesses,
		}
	}
	return s
}

// fmtJ renders an energy in engineering units (the repo's tables work
// in nJ/pJ territory).
func fmtJ(v float64) string {
	a := math.Abs(v)
	switch {
	case a == 0:
		return "0"
	case a >= 1e-6:
		return fmt.Sprintf("%.4g uJ", v*1e6)
	case a >= 1e-9:
		return fmt.Sprintf("%.4g nJ", v*1e9)
	default:
		return fmt.Sprintf("%.4g pJ", v*1e12)
	}
}

func pct(part, whole float64) string {
	if whole == 0 {
		return "-"
	}
	return fmt.Sprintf("%5.1f%%", 100*part/whole)
}

// Table renders the per-run breakdown of one snapshot.
func (s Snapshot) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run report: layer %s", s.Layer)
	if s.Master != "" {
		fmt.Fprintf(&b, "  master %s", s.Master)
	}
	fmt.Fprintf(&b, "\n  cycles %d (skipped %d in %d jumps, procs %d)\n",
		s.Cycles, s.SkippedCycles, s.IdleSkips, s.ProcsRun)
	fmt.Fprintf(&b, "  tx accepted %d  completed %d  errored %d  rejected %d  retries %d\n",
		s.Accepted, s.Completed, s.Errored, s.Rejected, s.Retries)
	fmt.Fprintf(&b, "  beats %d  wait cycles %d\n", s.Beats, s.WaitCycles)
	fmt.Fprintf(&b, "  energy %s\n", fmtJ(s.TotalEnergyJ))
	for k := 0; k < int(NumPhaseKinds); k++ {
		fmt.Fprintf(&b, "    %-10s %12s  %s\n",
			PhaseKind(k).String(), fmtJ(s.EnergyJ[k]), pct(s.EnergyJ[k], s.TotalEnergyJ))
	}
	if len(s.Slaves) > 0 {
		fmt.Fprintf(&b, "  per slave:\n")
		for _, sl := range s.Slaves {
			fmt.Fprintf(&b, "    %-10s %12s  %s  %d accesses\n",
				sl.Name, fmtJ(sl.EnergyJ), pct(sl.EnergyJ, s.TotalEnergyJ), sl.Accesses)
		}
		fmt.Fprintf(&b, "    %-10s %12s  %s\n",
			"(other)", fmtJ(s.UnattributedJ), pct(s.UnattributedJ, s.TotalEnergyJ))
	}
	fmt.Fprintf(&b, "  occupancy max:")
	for c := 0; c < int(ecbus.NumCategories); c++ {
		fmt.Fprintf(&b, "  %s %d/%d", ecbus.Category(c), s.Occupancy[c].Max, ecbus.MaxOutstanding)
	}
	fmt.Fprintf(&b, "\n  latency mean %.1f max %d cycles\n", s.Latency.Mean(), s.Latency.Max)
	if f := s.Fault; f != (FaultCounters{}) {
		fmt.Fprintf(&b, "  faults injected: %d read err  %d write err  %d corruptions  %d wait cycles  %d stretches\n",
			f.ReadErrors, f.WriteErrors, f.Corruptions, f.ExtraWaits, f.Stretched)
	}
	if a := s.Arb; a != (ArbCounters{}) {
		fmt.Fprintf(&b, "  arbitration: %d grants  %d grant waits  %d contention windows  %s wire energy\n",
			a.Grants, a.GrantWaits, a.Contentions, fmtJ(a.EnergyJ))
	}
	if fi := s.Fidelity; fi != (FidelityCounters{}) {
		fmt.Fprintf(&b, "  multi-fidelity: screened %d  pruned %d  confirmed %d  screen %.3fms  confirm %.3fms\n",
			fi.Screened, fi.Pruned, fi.Confirmed,
			float64(fi.ScreenNanos)/1e6, float64(fi.ConfirmNanos)/1e6)
	}
	if tc := s.Tear; tc != (TearCounters{}) {
		fmt.Fprintf(&b, "  tear: cut at cycle %d (program op %d)  %d words corrupted\n",
			tc.CutCycle, tc.CutOp, tc.CorruptWords)
	}
	if j := s.Journal; j != (JournalCounters{}) {
		fmt.Fprintf(&b, "  journal: %d records  %d markers  %d commits  %d in-place writes\n",
			j.Records, j.Markers, j.Commits, j.InPlaceWrites)
		if j.FramesReplayed+j.FramesDiscarded+j.WordsApplied > 0 {
			fmt.Fprintf(&b, "  replay: %d frames applied  %d discarded  %d words  scan %s  apply %s  finalize %s\n",
				j.FramesReplayed, j.FramesDiscarded, j.WordsApplied,
				fmtJ(j.ScanJ), fmtJ(j.ApplyJ), fmtJ(j.FinalizeJ))
		}
	}
	return b.String()
}

func diffU(b *strings.Builder, name string, a, x uint64) {
	if a == x {
		return
	}
	d := int64(x) - int64(a)
	fmt.Fprintf(b, "  %-12s %12d -> %-12d %+d", name, a, x, d)
	if a != 0 {
		fmt.Fprintf(b, " (%+.1f%%)", 100*float64(d)/float64(a))
	}
	b.WriteByte('\n')
}

func diffJ(b *strings.Builder, name string, a, x float64) {
	if a == x {
		return
	}
	d := x - a
	fmt.Fprintf(b, "  %-12s %12s -> %-12s %+s", name, fmtJ(a), fmtJ(x), fmtJ(d))
	if a != 0 {
		fmt.Fprintf(b, " (%+.1f%%)", 100*d/a)
	}
	b.WriteByte('\n')
}

// Diff renders the differences between two runs — clean vs fault plan,
// reference vs optimized, or layer vs layer. Identical fields are
// omitted; an empty body means the runs match on everything reported.
func Diff(a, x Snapshot) string {
	var b strings.Builder
	la, lx := a.Layer, x.Layer
	if la == "" {
		la = "A"
	}
	if lx == "" {
		lx = "B"
	}
	fmt.Fprintf(&b, "diff %s -> %s\n", la, lx)
	n := b.Len()
	diffU(&b, "cycles", a.Cycles, x.Cycles)
	diffU(&b, "skipped", a.SkippedCycles, x.SkippedCycles)
	diffU(&b, "accepted", a.Accepted, x.Accepted)
	diffU(&b, "completed", a.Completed, x.Completed)
	diffU(&b, "errored", a.Errored, x.Errored)
	diffU(&b, "rejected", a.Rejected, x.Rejected)
	diffU(&b, "retries", a.Retries, x.Retries)
	diffU(&b, "beats", a.Beats, x.Beats)
	diffU(&b, "wait-cycles", a.WaitCycles, x.WaitCycles)
	diffJ(&b, "energy", a.TotalEnergyJ, x.TotalEnergyJ)
	for k := 0; k < int(NumPhaseKinds); k++ {
		diffJ(&b, PhaseKind(k).String(), a.EnergyJ[k], x.EnergyJ[k])
	}
	for i := 0; i < len(a.Slaves) && i < len(x.Slaves); i++ {
		if a.Slaves[i].Name == x.Slaves[i].Name {
			diffJ(&b, "@"+a.Slaves[i].Name, a.Slaves[i].EnergyJ, x.Slaves[i].EnergyJ)
		}
	}
	diffU(&b, "arb-grants", a.Arb.Grants, x.Arb.Grants)
	diffU(&b, "arb-waits", a.Arb.GrantWaits, x.Arb.GrantWaits)
	diffU(&b, "arb-contend", a.Arb.Contentions, x.Arb.Contentions)
	diffJ(&b, "arb-energy", a.Arb.EnergyJ, x.Arb.EnergyJ)
	diffU(&b, "flt-rderr", a.Fault.ReadErrors, x.Fault.ReadErrors)
	diffU(&b, "flt-wrerr", a.Fault.WriteErrors, x.Fault.WriteErrors)
	diffU(&b, "flt-corrupt", a.Fault.Corruptions, x.Fault.Corruptions)
	diffU(&b, "flt-waits", a.Fault.ExtraWaits, x.Fault.ExtraWaits)
	diffU(&b, "flt-stretch", a.Fault.Stretched, x.Fault.Stretched)
	if b.Len() == n {
		fmt.Fprintf(&b, "  (no differences)\n")
	}
	return b.String()
}
