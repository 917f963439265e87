package explore

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/gatepower"
	"repro/internal/javacard"
	"repro/internal/journal"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sim"
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

// wordMaster issues single 32-bit transactions to completion by
// stepping the kernel — the journal's view of the bus. After every
// completed operation it polls the tear monitor, so a power loss cuts
// between bus operations at an observation point that is identical on
// the reference and optimized bus paths.
type wordMaster struct {
	k       *sim.Kernel
	bus     core.Initiator
	ids     uint64
	n       uint64
	tr      ecbus.Transaction
	retry   core.RetryPolicy
	retries uint64
	mon     *tear.Monitor
	// onRead, when set, observes completed data-window reads (the
	// persistence checker's J2 feed).
	onRead func(addr uint64)
}

func (m *wordMaster) access(kind ecbus.Kind, addr uint64, data uint32) (uint32, error) {
	m.ids++
	if err := m.tr.ResetSingle(m.ids, kind, addr, ecbus.W32, data); err != nil {
		return 0, err
	}
	m.n++
	for i := 0; i < javacard.TransactionRetryLimit; i++ {
		st := m.bus.Access(&m.tr)
		if st == ecbus.StateOK {
			if kind == ecbus.Read && m.onRead != nil {
				m.onRead(addr)
			}
			if m.mon.Check() {
				return 0, journal.ErrPowerLost
			}
			return m.tr.Data[0], nil
		}
		if st == ecbus.StateError {
			if int(m.tr.Retries) >= m.retry.MaxRetries {
				return 0, fmt.Errorf("explore: %v bus error at %#x after %d retries", kind, addr, m.tr.Retries)
			}
			m.tr.ResetForRetry()
			m.retries++
			for b := uint64(0); b < m.retry.Backoff; b++ {
				m.k.Step()
			}
		}
		m.k.Step()
	}
	return 0, &ErrFetchTimeout{Addr: addr, Cycle: m.k.Cycle()}
}

// ReadWord implements journal.BusRW.
func (m *wordMaster) ReadWord(addr uint64) (uint32, error) {
	return m.access(ecbus.Read, addr, 0)
}

// WriteWord implements journal.BusRW.
func (m *wordMaster) WriteWord(addr uint64, data uint32) error {
	_, err := m.access(ecbus.Write, addr, data)
	return err
}

// persister mirrors committed VM statics into the persistent store:
// directly when unjournaled, through the transaction journal otherwise
// (grouping tearTxnWrites stores per transaction). It tracks the
// expected durable state for post-recovery verification.
type persister struct {
	w      *journal.Writer // nil = unjournaled
	bus    *wordMaster
	base   uint64
	open   int
	commit map[uint64]uint32 // journaled: durable words; unjournaled: last written
}

func newPersister(s journal.Strategy, reg journal.Region, bus *wordMaster, pc *checker.Persist) *persister {
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
	jbus := &wordMaster{k: k, bus: sa.cpu, retry: sa.retry, mon: mon}
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
	torn := false
	for i := uint64(0); i < vmStepBudget && !vm.Halted(); i++ {
		if i%cancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, &CancelledError{Config: cfg, Workload: p.w.Name, Cause: err}
			}
		}
		if mon.Check() {
			torn = true
			break
		}
		if err := vm.Step(); err != nil {
			if errors.Is(err, journal.ErrPowerLost) {
				torn = true
				break
			}
			return Result{}, err
		}
	}
	if !torn && !vm.Halted() {
		return Result{}, errors.New("jcvm: step budget exhausted")
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
	txA, retriesA = txA+jbus.n, retriesA+jbus.retries

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
	jbus2 := &wordMaster{k: k2, bus: sb.cpu, retry: sb.retry, mon: nil}
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
		Transactions: txA + jbus2.n,
		Retries:      retriesA + jbus2.retries,
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
