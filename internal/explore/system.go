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
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tlm1"
	"repro/internal/tlm2"
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
	fetcher *blockingMaster
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
	switch layer {
	case 1:
		b := tlm1.New(s.k, bmap).AttachPower(tlm1.NewPowerModel(char))
		if busReg != nil {
			b.AttachMetrics(busReg)
		}
		bus, s.energy = b, b.Power().TotalEnergy
	case 2:
		b := tlm2.New(s.k, bmap).AttachPower(tlm2.NewPowerModel(char))
		if busReg != nil {
			b.AttachMetrics(busReg)
		}
		bus, s.energy = b, b.Power().TotalEnergy
	default: // 3; Valid has already refused any other layer
		s.count = tlm3.NewCounter(bmap)
		bus = s.count
	}
	s.cpu = bus
	if s.mux != nil {
		s.mux.Bind(bus)
		s.cm = crypto.NewMaster(s.k, s.mux.Port(portCrypto), cryptoMasterKey, contendedJobs())
		s.cm.Retry, s.cm.Metrics = s.retry, reg
		s.de = dma.New(s.k, s.mux.Port(portDMA), contendedDescriptors())
		s.de.Retry, s.de.Metrics = s.retry, reg
		s.cpu = s.mux.Port(portCPU)
	}
	return s, nil
}

// boot attaches the CPU masters and the interpreter running the
// workload program.
func (s *system) boot() {
	s.adapter = javacard.NewMasterAdapter(s.k, s.cpu, s.base, s.cfg.Org)
	s.adapter.Retry = s.retry
	s.fetcher = &blockingMaster{k: s.k, bus: s.cpu, retry: s.retry}
	mm, fw := s.p.w.Runtime()
	s.vm = javacard.NewVM(s.p.prog, s.adapter, mm, fw)
	s.vm.FetchHook = func(pc int) {
		// Interleave the interpreter's code fetch with the stack
		// traffic. Method bodies alias onto the main image window; the
		// traffic pattern, not the fetched value, is what matters here.
		_ = s.fetcher.read8(uint64(pc) % romSize)
	}
}

// contendedDrainBudget bounds the post-VM drain of the autonomous
// masters; reaching it means a grant-protocol deadlock, not slowness.
const contendedDrainBudget = 2_000_000

// run executes the booted interpreter to completion under ctx, flushes
// the adapter's staged stack traffic and, on a contended system, runs
// the kernel until the autonomous masters and the mux are idle.
func (s *system) run(ctx context.Context) error {
	if err := runVM(ctx, s.vm); err != nil {
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			return &CancelledError{Config: s.cfg, Workload: s.p.w.Name, Cause: err}
		}
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

// cpuRetries counts the CPU masters' bus-error re-issues.
func (s *system) cpuRetries() uint64 { return s.adapter.Retries + s.fetcher.retries }

// traffic sums transactions and retries over every master on the bus.
func (s *system) traffic() (tx, retries uint64) {
	tx, retries = s.adapter.Transactions+s.fetcher.n, s.cpuRetries()
	if s.mux != nil {
		tx += s.cm.Transactions + s.de.Transactions
		retries += s.cm.Retries + s.de.Retries
	}
	return tx, retries
}
