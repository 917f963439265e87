package explore

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/checker"
	"repro/internal/gatepower"
	"repro/internal/journal"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/tear"
)

// The tear-aware system's persistent store: an EEPROM holding the
// mirrored VM statics (the data window) and the transaction journal.
// It sits far above every stack SFR base and below the contended
// system's buffers, so no address map collides with it.
const (
	// TearEEBase is the EEPROM base of the tear-aware configurations.
	TearEEBase = 0x0400_0000

	tearEESize   = 0x1000
	tearDataSize = 0x200 // statics window; the journal takes the rest

	// tearTxnWrites groups this many static stores into one journal
	// transaction, so the lazy commit modes have real multi-word
	// transactions to defer (and real uncommitted tails to lose).
	tearTxnWrites = 4
)

// TearRegion is the journal layout of the tear-aware configurations.
func TearRegion() journal.Region {
	return journal.Region{
		DataBase:    TearEEBase,
		JournalBase: TearEEBase + tearDataSize,
		JournalSize: tearEESize - tearDataSize,
	}
}

// persister mirrors committed VM statics into the persistent store:
// directly when unjournaled, through the transaction journal otherwise
// (grouping tearTxnWrites stores per transaction). It tracks the
// expected durable state for post-recovery verification.
type persister struct {
	w      *journal.Writer // nil = unjournaled
	bus    *cpuMaster
	base   uint64
	open   int
	commit map[uint64]uint32 // journaled: durable words; unjournaled: last written
}

func newPersister(s journal.Strategy, reg journal.Region, bus *cpuMaster, pc *checker.Persist) *persister {
	p := &persister{bus: bus, base: reg.DataBase, commit: map[uint64]uint32{}}
	if !s.Empty() {
		p.w = journal.NewWriter(s, reg, bus)
		if pc != nil {
			p.w.Obs = pc.Observe
		}
		p.w.Begin()
	}
	return p
}

// put persists one static store.
func (p *persister) put(idx int, v int16) error {
	addr := p.base + uint64(4*idx)
	if addr >= p.base+tearDataSize {
		return fmt.Errorf("explore: static %d outside the persistent data window", idx)
	}
	data := uint32(uint16(v))
	if p.w == nil {
		if err := p.bus.WriteWord(addr, data); err != nil {
			return err
		}
		p.commit[addr] = data
		return nil
	}
	if err := p.w.Write(addr, data); err != nil {
		return err
	}
	p.open++
	if p.open >= tearTxnWrites {
		return p.flush()
	}
	return nil
}

// flush commits the open transaction and starts the next.
func (p *persister) flush() error {
	if p.w == nil || p.open == 0 {
		return nil
	}
	if err := p.w.Commit(); err != nil {
		return err
	}
	p.open = 0
	p.w.Begin()
	return nil
}

// committed returns the words guaranteed durable: the journal's
// committed prefix when journaled, every written word otherwise.
func (p *persister) committed() map[uint64]uint32 {
	if p.w != nil {
		return p.w.Committed()
	}
	return p.commit
}

// runTorn evaluates a tear/journal configuration: phase A runs the
// workload with VM statics mirrored into the persistent EEPROM until
// the workload halts or the tear monitor cuts the supply (possibly
// corrupting the in-flight NVM word); phase B powers a fresh platform
// up on the surviving EEPROM image, replays the journal, and verifies
// the committed state against the phase-A commit log. Reported cycles,
// energy and traffic sum over both phases; the recovery energy is also
// broken out per phase (scan/apply/finalize) as exact meter deltas.
func runTorn(ctx context.Context, cfg Config, p prepared, char gatepower.CharTable, metered bool) (Result, error) {
	plan, ok := tear.Named(cfg.Tear)
	if !ok {
		return Result{}, fmt.Errorf("explore: unknown tear plan %q (valid plans: %s)",
			cfg.Tear, strings.Join(tear.Names, ", "))
	}
	strat, ok := journal.Named(cfg.Journal)
	if !ok {
		return Result{}, fmt.Errorf("explore: unknown journal strategy %q (valid strategies: %s)",
			cfg.Journal, strings.Join(journal.Names, ", "))
	}
	var reg *metrics.Registry
	if metered {
		reg = metrics.New(fmt.Sprintf("L%d", cfg.Layer))
		reg.SetMaster(p.w.Name)
	}
	region := TearRegion()

	// ---- Phase A: the powered session, cut by the tear monitor.
	sa, err := newSystem(cfg, p, cfg.Layer, char, reg, reg)
	if err != nil {
		return Result{}, err
	}
	sa.boot()
	k, ee, energy, vm := sa.k, sa.ee, sa.energy, sa.vm

	clock := k.Cycle // the checker reports against the live phase's clock
	pc := checker.NewPersist(func() uint64 { return clock() })
	mon := tear.NewMonitor(plan, k.Cycle, energy, ee.Programs)
	jbus := sa.master(mon)
	jbus.onRead = func(addr uint64) {
		if addr < region.JournalBase {
			pc.ObserveRead(addr)
		}
	}
	pers := newPersister(strat, region, jbus, pc)
	vm.StaticHook = pers.put

	// The interpreter loop polls the monitor at every bytecode boundary
	// — the second observation point class, also identical between the
	// reference and optimized paths.
	err = sa.runVM(ctx, mon.Check)
	torn := errors.Is(err, journal.ErrPowerLost)
	if err != nil && !torn {
		return Result{}, err
	}
	if !torn {
		// Normal completion: flush the trailing transaction, which may
		// itself be cut.
		if err := pers.flush(); err == nil {
			err = sa.adapter.Flush()
			if err != nil {
				return Result{}, err
			}
		} else if errors.Is(err, journal.ErrPowerLost) {
			torn = true
		} else {
			return Result{}, err
		}
	}

	// The supply is gone: resolve the partial NVM write. The corruption
	// pattern depends only on (seed, addr, ordinal) — see mem.TearAt.
	var corrupt []mem.TornWord
	if torn {
		if tw, did := ee.TearAt(mon.CutCycle(), plan.Seed); did {
			corrupt = append(corrupt, tw)
			pc.MarkTorn(tw.Addr)
		}
	}
	committed := make(map[uint64]uint32, len(pers.committed()))
	for a, v := range pers.committed() {
		committed[a] = v
	}
	cyclesA, e1 := k.Cycle(), energy()
	txA, retriesA := sa.traffic()
	txA, retriesA = txA+jbus.Transactions, retriesA+jbus.Retries

	// ---- Phase B: power-up on the surviving EEPROM image. Phase B's
	// bus carries its own meter; the registry stays on phase A's bus so
	// the energy cursor never runs backward. The recovery energy is
	// attributed through the journal counters instead.
	sb, err := newSystem(cfg, p, cfg.Layer, char, reg, nil)
	if err != nil {
		return Result{}, err
	}
	if err := sb.ee.Load(0, ee.Bytes()); err != nil {
		return Result{}, err
	}
	k2, energy2 := sb.k, sb.energy
	clock = k2.Cycle
	jbus2 := sb.master(nil)
	jbus2.onRead = jbus.onRead // same data-window filter, same checker

	var rec journal.Recovery
	if !strat.Empty() {
		rec, err = journal.Replay(strat, region, jbus2, energy2, pc.Observe)
		if err != nil {
			return Result{}, err
		}
		// Verify: every committed word must read back exactly. This is
		// the recovery contract the journaling strategies are sweeping
		// against; a mismatch is a subsystem bug, not a result.
		for addr, want := range committed {
			got, err := jbus2.ReadWord(addr)
			if err != nil {
				return Result{}, err
			}
			if got != want {
				return Result{}, fmt.Errorf("explore: recovery lost %#x: got %#x, want %#x", addr, got, want)
			}
		}
	}
	if !pc.Clean() {
		return Result{}, fmt.Errorf("explore: persistence checker: %v", pc.Violations()[0])
	}

	res := Result{
		Config:       cfg,
		Workload:     p.w.Name,
		Cycles:       cyclesA + k2.Cycle(),
		BusEnergyJ:   e1 + energy2(),
		Transactions: txA + jbus2.Transactions,
		Retries:      retriesA + jbus2.Retries,
		Steps:        vm.Steps,
		Torn:         torn,
		CutCycle:     mon.CutCycle(),
		RecoveryJ:    rec.BoundsJ[3] - rec.BoundsJ[0],
	}
	if reg != nil {
		reg.Retries(res.Retries)
		if torn {
			reg.TearCut(mon.CutCycle(), mon.CutProgram(), uint64(len(corrupt)))
		}
		if pers.w != nil {
			st := pers.w.Stats
			reg.JournalActivity(st.Records, st.Markers, st.Commits, st.InPlaceWrites)
		}
		if !strat.Empty() {
			reg.JournalReplay(uint64(rec.Applied), uint64(rec.Discarded), uint64(rec.WordsApplied),
				rec.ScanJ, rec.ApplyJ, rec.FinalizeJ)
		}
		reg.RecordKernel(cyclesA, k.SkippedCycles(), k.IdleSkips(), k.ProcsRun())
		// Finalize against the two-phase total so the snapshot's
		// TotalEnergyJ is bit-for-bit the reported BusEnergyJ (phase B's
		// share lands unattributed — its bus has no registry).
		reg.Finalize(res.BusEnergyJ)
		snap := reg.Snapshot()
		res.Metrics = &snap
	}
	return res, nil
}
