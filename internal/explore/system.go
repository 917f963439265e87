package explore

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/arb"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/dma"
	"repro/internal/ecbus"
	"repro/internal/fault"
	"repro/internal/gatepower"
	"repro/internal/javacard"
	"repro/internal/journal"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/tear"
	"repro/internal/tlm3"
)

// system is one configuration's private simulated platform: a kernel,
// an address map (the shared code ROM plus a private hardware stack,
// each fault-wrapped under an active plan), one bus model, and the CPU
// masters — the interpreter's stack adapter and code fetcher. An
// arbitration policy adds the crypto and DMA masters behind a mux with
// their APDU buffer and EEPROM slaves; a tear plan or journal strategy
// adds the persistent EEPROM store. Every run kind — timed, counting,
// contended, torn — is this one system viewed at one bus layer.
type system struct {
	cfg    Config
	p      prepared
	k      *sim.Kernel
	base   uint64           // stack SFR base
	retry  core.RetryPolicy // master retry policy (non-zero under a fault plan)
	energy func() float64   // timed bus meter; nil on the counting bus
	count  *tlm3.Counter    // the counting bus (layer 3)
	cpu    core.Initiator   // the CPU masters' view: the bus, or the mux's CPU port
	ee     *mem.EEPROM      // tear/journal systems' persistent store

	mux *arb.Mux // contended systems only
	cm  *crypto.Master
	de  *dma.Engine

	adapter *javacard.MasterAdapter
	fetcher *cpuMaster
	vm      *javacard.VM
}

// newSystem builds cfg's platform with a layer-1 or layer-2 timed bus,
// or the layer-3 counting bus. cfg.Arb, cfg.Tear and cfg.Journal must
// be folded (off). The fault injectors and the contenders report to
// reg, the bus model to busReg; either may be nil. The CPU side is
// attached separately (boot), so a system can also serve as a bare
// power-up platform.
func newSystem(cfg Config, p prepared, layer int, char gatepower.CharTable, reg, busReg *metrics.Registry) (*system, error) {
	base, ok := BaseForMap(cfg.AddrMap)
	if !ok {
		return nil, fmt.Errorf("explore: unknown address map %q (valid maps: %s)",
			cfg.AddrMap, strings.Join(AllAddrMaps, ", "))
	}
	plan, ok := fault.Named(cfg.Fault)
	if !ok {
		return nil, fmt.Errorf("explore: unknown fault plan %q", cfg.Fault)
	}
	s := &system{cfg: cfg, p: p, k: sim.New(0), base: base}
	if cfg.Arb != "" {
		policy, err := arb.ParsePolicy(cfg.Arb)
		if err != nil {
			return nil, err
		}
		// The mux's falling-edge proc must register before the bus
		// model's so a grant's address phase starts on the grant cycle.
		s.mux = arb.NewMux(s.k, policy, contendedMasters)
	}

	// An active fault plan wraps every slave in a per-run injector: the
	// injector carries mutable access counters, so each configuration
	// gets private instances while the ROM underneath stays shared and
	// read-only across workers.
	wrap := func(sl ecbus.Slave, pl fault.Plan) ecbus.Slave {
		if plan.Empty() {
			return sl
		}
		return fault.Wrap(sl, pl).AttachMetrics(reg)
	}
	// The stack SFR has destructive reads (pop registers), so it only
	// takes the side-effect-safe projection of the plan.
	slaves := []ecbus.Slave{wrap(p.rom, plan), wrap(javacard.NewHardStack("stack", base), plan.WithoutReadErrors())}
	if s.mux != nil {
		// The contenders' buffer RAMs have idempotent reads: full plan.
		apdu := mem.NewRAM("apdu", ApduBase, contendedBufSize, 0, 0)
		fillApdu(apdu)
		slaves = append(slaves, wrap(apdu, plan),
			wrap(mem.NewNVRAM("ee", EEBase, contendedBufSize, 1, 2, 8), plan))
	}
	// The persistent store backs tear/journal runs only; a screening
	// count ignores both axes, so the counting bus never carries it.
	if layer != 3 && (cfg.Tear != "" || cfg.Journal != "") {
		s.ee = mem.NewEEPROM("ee", TearEEBase, tearEESize, s.k)
		// The EEPROM's reads are idempotent, but an injected read error
		// mid-replay would abort recovery rather than exercise it; the
		// store keeps the write/wait projection like the stack.
		slaves = append(slaves, wrap(s.ee, plan.WithoutReadErrors()))
	}
	if !plan.Empty() {
		s.retry = SweepRetry
	}
	bmap, err := ecbus.NewMap(slaves...)
	if err != nil {
		return nil, err
	}

	var bus core.Initiator
	if layer == 3 { // Valid has already refused any layer but 1, 2 and 3
		s.count = tlm3.NewCounter(bmap)
		bus = s.count
	} else {
		bus, s.energy = platform.NewBus(s.k, platform.Layer(layer), bmap, true, char, busReg)
	}
	s.cpu = bus
	if s.mux != nil {
		s.mux.Bind(bus)
		s.cm = crypto.NewMaster(s.k, s.mux.Port(portCrypto), cryptoMasterKey, contendedJobs())
		s.cm.Retry = s.retry
		s.de = dma.New(s.k, s.mux.Port(portDMA), contendedDescriptors())
		s.de.Retry = s.retry
		s.cpu = s.mux.Port(portCPU)
	}
	return s, nil
}

// boot attaches the CPU masters and the interpreter running the
// workload program.
func (s *system) boot() {
	s.adapter = javacard.NewMasterAdapter(s.k, s.cpu, s.base, s.cfg.Org, s.retry)
	s.fetcher = s.master(nil)
	mm, fw := s.p.w.Runtime()
	s.vm = javacard.NewVM(s.p.prog, s.adapter, mm, fw)
	s.vm.FetchHook = func(pc int) error {
		// Interleave the interpreter's code fetch with the stack
		// traffic. Method bodies alias onto the main image window; the
		// traffic pattern, not the fetched value, is what matters here.
		_, err := s.fetcher.access(ecbus.Fetch, uint64(pc)%romSize, ecbus.W8, 0)
		return err
	}
}

// cpuMaster is a CPU-side master on the system's bus that runs each
// access to completion: the interpreter's code fetcher, and the
// journal's view of the bus. After every completed access it polls the
// tear monitor, so a power loss cuts between bus operations at an
// observation point that is identical on the reference and optimized
// bus paths.
type cpuMaster struct {
	*core.BlockingMaster
	k   *sim.Kernel
	mon *tear.Monitor // nil: the supply never fails
	// onRead, when set, observes completed data-window reads (the
	// persistence checker's J2 feed).
	onRead func(addr uint64)
}

// master attaches a CPU-side blocking master to the system's bus.
func (s *system) master(mon *tear.Monitor) *cpuMaster {
	return &cpuMaster{BlockingMaster: core.NewBlockingMaster(s.k, s.cpu, s.retry), k: s.k, mon: mon}
}

func (m *cpuMaster) access(kind ecbus.Kind, addr uint64, w ecbus.Width, data uint32) (uint32, error) {
	tr, err := m.Single(kind, addr, w, data)
	if err != nil {
		return 0, err
	}
	switch m.Run(tr) {
	case ecbus.StateOK:
	case ecbus.StateError:
		return 0, fmt.Errorf("explore: %v bus error at %#x after %d retries", kind, addr, tr.Retries)
	default:
		return 0, &ErrFetchTimeout{Addr: addr, Cycle: m.k.Cycle()}
	}
	if kind == ecbus.Read && m.onRead != nil {
		m.onRead(addr)
	}
	if m.mon != nil && m.mon.Check() {
		return 0, journal.ErrPowerLost
	}
	return tr.Data[0], nil
}

// ReadWord implements journal.BusRW.
func (m *cpuMaster) ReadWord(addr uint64) (uint32, error) {
	return m.access(ecbus.Read, addr, ecbus.W32, 0)
}

// WriteWord implements journal.BusRW.
func (m *cpuMaster) WriteWord(addr uint64, data uint32) error {
	_, err := m.access(ecbus.Write, addr, ecbus.W32, data)
	return err
}

// contendedDrainBudget bounds the post-VM drain of the autonomous
// masters; reaching it means a grant-protocol deadlock, not slowness.
const contendedDrainBudget = 2_000_000

// vmStepBudget bounds one configuration's interpreter run; reaching it
// means the workload diverged, not that the bus is slow.
const vmStepBudget = 10_000_000

// cancelCheckEvery is the bytecode interval between context polls. One
// bytecode completes in a bounded number of kernel steps, so this
// bounds the cancellation latency to a small fraction of a millisecond.
const cancelCheckEvery = 1024

// runVM is the one interpreter loop of every run kind: it steps the
// booted interpreter until it halts, polling ctx every
// cancelCheckEvery bytecodes (a cancellation returns a CancelledError).
// When cut is non-nil it is checked at every bytecode boundary, and a
// true answer ends the run with journal.ErrPowerLost, the error a
// bytecode cut mid-access returns.
func (s *system) runVM(ctx context.Context, cut func() bool) error {
	vm := s.vm
	for i := uint64(0); i < vmStepBudget; i++ {
		if vm.Halted() {
			return nil
		}
		if i%cancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return &CancelledError{Config: s.cfg, Workload: s.p.w.Name, Cause: err}
			}
		}
		if cut != nil && cut() {
			return journal.ErrPowerLost
		}
		if err := vm.Step(); err != nil {
			return err
		}
	}
	if !vm.Halted() {
		return errors.New("jcvm: step budget exhausted")
	}
	return nil
}

// run executes the booted interpreter to completion under ctx, flushes
// the adapter's staged stack traffic and, on a contended system, runs
// the kernel until the autonomous masters and the mux are idle.
func (s *system) run(ctx context.Context) error {
	if err := s.runVM(ctx, nil); err != nil {
		return err
	}
	if err := s.adapter.Flush(); err != nil {
		return err
	}
	if s.mux == nil {
		return nil
	}
	_, done := s.k.RunUntil(contendedDrainBudget, func() bool {
		return s.cm.Done() && s.de.Done() && s.mux.Drained()
	})
	if !done {
		return errors.New("explore: contended run did not drain (grant-protocol deadlock?)")
	}
	return nil
}

// traffic sums transactions and retries over every master on the bus.
func (s *system) traffic() (tx, retries uint64) {
	tx, retries = s.adapter.Transactions+s.fetcher.Transactions, s.adapter.Retries+s.fetcher.Retries
	if s.mux != nil {
		tx += s.cm.Transactions + s.de.Transactions
		retries += s.cm.Retries + s.de.Retries
	}
	return tx, retries
}
