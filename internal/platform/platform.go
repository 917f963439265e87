// Package platform assembles the paper's target architecture (Fig. 1) —
// MIPS-core smart card with ROM, Flash, EEPROM, RAM/scratchpad, UART,
// two timers, true RNG, interrupt system and crypto coprocessor — behind
// an EC bus model at a selectable abstraction layer, with optional
// hierarchical energy estimation.
//
// The same builder produces layer-0 (signal-true + gate-level power),
// layer-1 (cycle-accurate + transition power) and layer-2 (timed +
// per-phase power) systems, which is precisely the workflow the paper's
// hierarchical models enable: refine the platform model without touching
// the software or the peripherals.
package platform

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/crypto"
	"repro/internal/ecbus"
	"repro/internal/fault"
	"repro/internal/gatepower"
	"repro/internal/mem"
	"repro/internal/periph"
	"repro/internal/rtlbus"
	"repro/internal/sim"
	"repro/internal/tlm1"
)

// Layer selects the bus abstraction level.
type Layer int

// Abstraction layers, paper terminology.
const (
	Layer0 Layer = iota // signal/cycle-true reference (rtlbus + gatepower)
	Layer1              // transaction level layer 1: cycle accurate
	Layer2              // transaction level layer 2: timed
)

// String returns the paper's name for the layer.
func (l Layer) String() string {
	switch l {
	case Layer0:
		return "gate-level"
	case Layer1:
		return "TL layer 1"
	case Layer2:
		return "TL layer 2"
	default:
		return fmt.Sprintf("Layer(%d)", int(l))
	}
}

// The standard smart-card memory map.
const (
	ROMBase     = 0x0000_0000 // 256 kB program memory
	ROMSize     = 256 << 10
	FlashBase   = 0x0008_0000 // 64 kB program memory
	FlashSize   = 64 << 10
	EEPROMBase  = 0x000A_0000 // 32 kB data & program memory
	EEPROMSize  = 32 << 10
	RAMBase     = 0x000C_0000 // 8 kB RAM
	RAMSize     = 8 << 10
	ScratchBase = 0x000D_0000 // 4 kB zero-wait scratchpad
	ScratchSize = 4 << 10
	UARTBase    = 0x000F_0000
	Timer0Base  = 0x000F_0100
	Timer1Base  = 0x000F_0200
	TRNGBase    = 0x000F_0300
	IntBase     = 0x000F_0400
	CryptoBase  = 0x000F_0500
)

// Config parameterizes a platform build.
type Config struct {
	Layer  Layer
	Energy bool                 // attach the layer's energy model
	Char   *gatepower.CharTable // characterization table for TLM energy; nil = DefaultCharTable
	Seed   uint64               // TRNG seed (0 = fixed default)
	ICache bool                 // CPU instruction cache
	Fault  fault.Plan           // fault-injection plan; the zero Plan injects nothing
}

// Platform is an assembled smart-card system.
type Platform struct {
	Kernel *sim.Kernel
	Layer  Layer
	Bus    core.Initiator

	ROM     *mem.ROM
	Flash   *mem.Flash
	EEPROM  *mem.EEPROM
	RAM     *mem.RAM
	Scratch *mem.RAM
	UART    *periph.UART
	Timer0  *periph.Timer
	Timer1  *periph.Timer
	TRNG    *periph.TRNG
	Int     *periph.IntController
	Crypto  *crypto.Coprocessor

	CPU *cpu.CPU // attached by LoadProgram

	meters    []*SlaveMeter
	busEnergy func() float64 // the bus model's energy reader (NewBus)
}

// New builds the platform at the configured layer.
func New(cfg Config) *Platform {
	k := sim.New(0)
	p := &Platform{Kernel: k, Layer: cfg.Layer}

	seed := cfg.Seed
	if seed == 0 {
		seed = 0x5CA7D_CA4D
	}
	ic := periph.NewIntController("int", IntBase)
	p.Int = ic
	p.ROM = mem.NewROM("rom", ROMBase, ROMSize, 0, 1)
	p.Flash = mem.NewFlash("flash", FlashBase, FlashSize, k)
	p.EEPROM = mem.NewEEPROM("eeprom", EEPROMBase, EEPROMSize, k)
	p.RAM = mem.NewRAM("ram", RAMBase, RAMSize, 0, 1)
	p.Scratch = mem.NewRAM("scratch", ScratchBase, ScratchSize, 0, 0)
	p.UART = periph.NewUART(k, "uart", UARTBase, ic)
	p.Timer0 = periph.NewTimer(k, "timer0", Timer0Base, ic, periph.LineTimer0)
	p.Timer1 = periph.NewTimer(k, "timer1", Timer1Base, ic, periph.LineTimer1)
	p.TRNG = periph.NewTRNG(k, "trng", TRNGBase, seed)
	p.Crypto = crypto.New(k, "crypto", CryptoBase, crypto.DefaultLeak(), ic, periph.LineCrypto)

	wrap := func(s ecbus.Slave, plan fault.Plan) ecbus.Slave {
		m := NewSlaveMeter(s)
		p.meters = append(p.meters, m)
		if plan.Empty() {
			return m
		}
		// The injector sits outermost: a suppressed faulty write never
		// reaches the meter (the array was not accessed), while an
		// error-flagged read still meters the access it corrupted.
		return fault.Wrap(m, plan)
	}
	// Memories take the full plan; peripherals have reads with side
	// effects (UART RX pops the FIFO, the TRNG advances its state), so
	// they only take the side-effect-safe projection — a retried
	// error-flagged read would otherwise replay the side effect.
	memPlan, perPlan := cfg.Fault, cfg.Fault.WithoutReadErrors()
	m := ecbus.MustMap(
		wrap(p.ROM, memPlan), wrap(p.Flash, memPlan), wrap(p.EEPROM, memPlan),
		wrap(p.RAM, memPlan), wrap(p.Scratch, memPlan),
		wrap(p.UART, perPlan), wrap(p.Timer0, perPlan), wrap(p.Timer1, perPlan),
		wrap(p.TRNG, perPlan), wrap(p.Int, perPlan), wrap(p.Crypto, perPlan),
	)

	p.Bus, p.busEnergy = NewBus(k, cfg.Layer, m, cfg.Energy, charTable(cfg), nil)
	return p
}

// charTable is the table pricing cfg's transaction-level energy model;
// layer-0 and energy-off builds need none, so they never characterize.
func charTable(cfg Config) gatepower.CharTable {
	switch {
	case !cfg.Energy || cfg.Layer == Layer0:
		return gatepower.CharTable{}
	case cfg.Char != nil:
		return *cfg.Char
	}
	return DefaultCharTable()
}

// LoadProgram loads assembled words at a ROM offset and attaches a CPU
// starting there.
func (p *Platform) LoadProgram(words []uint32, icache bool) error {
	if p.CPU != nil {
		return fmt.Errorf("platform: CPU already attached")
	}
	if err := p.ROM.LoadWords(0, words); err != nil {
		return err
	}
	p.CPU = cpu.New(p.Kernel, p.Bus, cpu.Config{
		PC: ROMBase, SP: uint32(ScratchBase + ScratchSize - 16), ICache: icache,
	})
	return nil
}

// EnableInterrupts wires the interrupt controller to the CPU: enabled
// pending lines vector the CPU to the handler at vector (return address
// in $k1, return with `jr $k1`); the acknowledge write in the handler is
// the end-of-interrupt that unmasks further delivery.
func (p *Platform) EnableInterrupts(vector uint64) error {
	if p.CPU == nil {
		return fmt.Errorf("platform: load a program before enabling interrupts")
	}
	p.CPU.EnableIRQ(func() bool { return p.Int.Pending() != 0 }, vector)
	p.Int.OnEOI = p.CPU.UnmaskIRQ
	return nil
}

// Run executes until the CPU halts or maxCycles elapse, returning cycles
// executed and whether the CPU halted.
func (p *Platform) Run(maxCycles uint64) (uint64, bool) {
	if p.CPU == nil {
		return p.Kernel.Run(maxCycles), false
	}
	return p.Kernel.RunUntil(maxCycles, p.CPU.Halted)
}

// BusEnergy returns the bus interface energy estimated by the layer's
// model (gate-level total for layer 0), or 0 when energy is off.
func (p *Platform) BusEnergy() float64 { return p.busEnergy() }

// PeripheralEnergy returns the characterized internal access energy of
// all slaves (the paper's future-work extension).
func (p *Platform) PeripheralEnergy() float64 {
	var sum float64
	for _, m := range p.meters {
		sum += m.Energy()
	}
	return sum
}

// TotalEnergy returns bus + peripheral-internal + crypto-engine energy.
func (p *Platform) TotalEnergy() float64 {
	return p.BusEnergy() + p.PeripheralEnergy() + p.Crypto.TraceEnergy()
}

// EnergyBreakdown returns per-slave internal energy keyed by slave name.
func (p *Platform) EnergyBreakdown() map[string]float64 {
	out := make(map[string]float64, len(p.meters))
	for _, m := range p.meters {
		out[m.Config().Name] = m.Energy()
	}
	return out
}

// Wires exposes the layer-0 wire bundle (nil on other layers), for VCD
// dumping and custom probes.
func (p *Platform) Wires() *ecbus.Bundle {
	if b, ok := p.Bus.(*rtlbus.Bus); ok {
		return b.Wires()
	}
	return nil
}

// TL1Power exposes the layer-1 power model (nil otherwise).
func (p *Platform) TL1Power() *tlm1.PowerModel {
	if b, ok := p.Bus.(*tlm1.Bus); ok {
		return b.Power()
	}
	return nil
}
