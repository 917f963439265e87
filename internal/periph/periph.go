// Package periph provides the smart-card peripherals of the paper's
// target architecture (Fig. 1): UART, two 16-bit timers, a true random
// number generator and the interrupt system. Each is an EC bus slave
// with memory-mapped special function registers (SFRs).
//
// The paper's conclusion announces, as future work, extending the bus
// energy model "to allow an early energy estimation for several
// different typical smart card components, like random number
// generators, UARTs or timers". This package implements that extension:
// every peripheral carries a characterized per-access internal energy
// (ecbus.EnergyReporter) that platform-level accounting adds to the bus
// interface energy.
package periph

import (
	"repro/internal/ecbus"
	"repro/internal/logic"
	"repro/internal/sim"
)

// Register offsets shared by the peripherals (byte offsets from base).
const (
	// UART
	UartData   = 0x0
	UartStatus = 0x4
	UartBaud   = 0x8
	UartCtrl   = 0xC

	// Timer
	TimerCtrl  = 0x0
	TimerLoad  = 0x4
	TimerCount = 0x8
	TimerFlag  = 0xC

	// TRNG
	TrngData   = 0x0
	TrngStatus = 0x4
	TrngCtrl   = 0x8

	// Interrupt controller
	IntStatus = 0x0
	IntEnable = 0x4
	IntAck    = 0x8
	IntRaise  = 0xC
)

// Interrupt lines of the platform.
const (
	LineTimer0 = 0
	LineTimer1 = 1
	LineUART   = 2
	LineCrypto = 3
)

// IntController is the interrupt system: peripherals raise lines, the
// CPU polls STATUS (pending & enabled) and acknowledges via ACK
// (write-one-to-clear).
type IntController struct {
	cfg     ecbus.SlaveConfig
	pending uint32
	enable  uint32
	raised  uint64 // total raise events

	// OnEOI, when set, is invoked after every acknowledge write — the
	// platform wires it to the CPU's interrupt unmask.
	OnEOI func()
}

// NewIntController creates the interrupt controller slave.
func NewIntController(name string, base uint64) *IntController {
	return &IntController{cfg: ecbus.SlaveConfig{
		Name: name, Base: base, Size: 0x10,
		Readable: true, Writable: true,
	}}
}

// Config returns the slave configuration.
func (ic *IntController) Config() ecbus.SlaveConfig { return ic.cfg }

// Raise asserts interrupt line n (peripheral-side API).
func (ic *IntController) Raise(n int) {
	ic.pending |= 1 << uint(n)
	ic.raised++
}

// Pending returns the enabled pending lines.
func (ic *IntController) Pending() uint32 { return ic.pending & ic.enable }

// ReadWord implements ecbus.Slave.
func (ic *IntController) ReadWord(addr uint64, _ ecbus.Width) (uint32, bool) {
	switch addr - ic.cfg.Base {
	case IntStatus:
		return ic.Pending(), true
	case IntEnable:
		return ic.enable, true
	case IntAck, IntRaise:
		return 0, true
	}
	return 0, false
}

// WriteWord implements ecbus.Slave.
func (ic *IntController) WriteWord(addr uint64, data uint32, _ ecbus.Width) bool {
	switch addr - ic.cfg.Base {
	case IntEnable:
		ic.enable = data
	case IntAck:
		ic.pending &^= data
		if ic.OnEOI != nil {
			ic.OnEOI()
		}
	case IntRaise: // software-raised interrupts (self test)
		ic.pending |= data
	case IntStatus:
		// read-only; writes ignored
	default:
		return false
	}
	return true
}

// AccessEnergy implements ecbus.EnergyReporter.
func (ic *IntController) AccessEnergy(ecbus.Kind) float64 { return 0.9e-12 }

// Timer is a 16-bit down-counting timer with a power-of-two prescaler
// and optional auto-reload, raising an interrupt line when it expires.
//
// CTRL bits: 0 enable, 1 auto-reload, 7:4 prescaler log2.
type Timer struct {
	cfg  ecbus.SlaveConfig
	irq  *IntController
	line int

	ctrl    uint32
	load    uint32
	count   uint32
	flag    bool
	prescal uint32

	expirations uint64
}

// NewTimer creates a timer slave and registers its count process on the
// kernel's rising edge. irq may be nil.
func NewTimer(k *sim.Kernel, name string, base uint64, irq *IntController, line int) *Timer {
	t := &Timer{
		cfg: ecbus.SlaveConfig{
			Name: name, Base: base, Size: 0x10,
			Readable: true, Writable: true,
		},
		irq:  irq,
		line: line,
	}
	k.At(sim.Rising, name, t.tick)
	return t
}

// Config returns the slave configuration.
func (t *Timer) Config() ecbus.SlaveConfig { return t.cfg }

// Expirations returns how many times the timer reached zero.
func (t *Timer) Expirations() uint64 { return t.expirations }

func (t *Timer) tick(uint64) {
	if t.ctrl&1 == 0 {
		return
	}
	shift := (t.ctrl >> 4) & 0xF
	t.prescal++
	if t.prescal < 1<<shift {
		return
	}
	t.prescal = 0
	if t.count == 0 {
		return
	}
	t.count--
	if t.count == 0 {
		t.flag = true
		t.expirations++
		if t.irq != nil {
			t.irq.Raise(t.line)
		}
		if t.ctrl&2 != 0 { // auto-reload
			t.count = t.load & 0xFFFF
		}
	}
}

// ReadWord implements ecbus.Slave.
func (t *Timer) ReadWord(addr uint64, _ ecbus.Width) (uint32, bool) {
	switch addr - t.cfg.Base {
	case TimerCtrl:
		return t.ctrl, true
	case TimerLoad:
		return t.load, true
	case TimerCount:
		return t.count, true
	case TimerFlag:
		if t.flag {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// WriteWord implements ecbus.Slave.
func (t *Timer) WriteWord(addr uint64, data uint32, _ ecbus.Width) bool {
	switch addr - t.cfg.Base {
	case TimerCtrl:
		t.ctrl = data
	case TimerLoad:
		t.load = data & 0xFFFF
		t.count = t.load
	case TimerFlag:
		if data&1 != 0 {
			t.flag = false
		}
	case TimerCount:
		// read-only; ignored
	default:
		return false
	}
	return true
}

// AccessEnergy implements ecbus.EnergyReporter.
func (t *Timer) AccessEnergy(ecbus.Kind) float64 { return 1.1e-12 }

// UART is a byte-oriented serial port with small TX/RX FIFOs. A byte
// takes 10 bit times (start + 8 data + stop) of BaudDiv cycles each.
//
// STATUS bits: 0 tx-fifo-empty, 1 tx-fifo-full, 2 rx-available.
// CTRL bits: 0 enable.
type UART struct {
	cfg ecbus.SlaveConfig
	irq *IntController

	ctrl    uint32
	baudDiv uint32
	tx      []byte
	rx      []byte
	bitCnt  uint32

	// TxLog accumulates every transmitted byte for observation.
	TxLog []byte
}

// fifoDepth is the TX and RX FIFO depth.
const fifoDepth = 8

// NewUART creates a UART slave and registers its shift process. irq may
// be nil.
func NewUART(k *sim.Kernel, name string, base uint64, irq *IntController) *UART {
	u := &UART{
		cfg: ecbus.SlaveConfig{
			Name: name, Base: base, Size: 0x10,
			AddrWait: 0, ReadWait: 1, WriteWait: 1,
			Readable: true, Writable: true,
		},
		irq:     irq,
		baudDiv: 16,
	}
	k.At(sim.Rising, name, u.tick)
	return u
}

// Config returns the slave configuration.
func (u *UART) Config() ecbus.SlaveConfig { return u.cfg }

// InjectRx queues received bytes (the card reader side of the link).
func (u *UART) InjectRx(p []byte) {
	u.rx = append(u.rx, p...)
	if u.irq != nil && len(u.rx) > 0 {
		u.irq.Raise(LineUART)
	}
}

func (u *UART) tick(uint64) {
	if u.ctrl&1 == 0 || len(u.tx) == 0 {
		return
	}
	u.bitCnt++
	if u.bitCnt >= 10*u.baudDiv {
		u.bitCnt = 0
		u.TxLog = append(u.TxLog, u.tx[0])
		u.tx = u.tx[1:]
	}
}

// ReadWord implements ecbus.Slave.
func (u *UART) ReadWord(addr uint64, _ ecbus.Width) (uint32, bool) {
	switch addr - u.cfg.Base {
	case UartData:
		if len(u.rx) == 0 {
			return 0, true
		}
		b := u.rx[0]
		u.rx = u.rx[1:]
		return uint32(b), true
	case UartStatus:
		var s uint32
		if len(u.tx) == 0 {
			s |= 1
		}
		if len(u.tx) >= fifoDepth {
			s |= 2
		}
		if len(u.rx) > 0 {
			s |= 4
		}
		return s, true
	case UartBaud:
		return u.baudDiv, true
	case UartCtrl:
		return u.ctrl, true
	}
	return 0, false
}

// WriteWord implements ecbus.Slave.
func (u *UART) WriteWord(addr uint64, data uint32, _ ecbus.Width) bool {
	switch addr - u.cfg.Base {
	case UartData:
		if len(u.tx) < fifoDepth {
			u.tx = append(u.tx, byte(data))
		}
		// Overflowing writes are dropped, as on the real device.
	case UartBaud:
		if data == 0 {
			data = 1
		}
		u.baudDiv = data
	case UartCtrl:
		u.ctrl = data
	case UartStatus:
		// read-only; ignored
	default:
		return false
	}
	return true
}

// AccessEnergy implements ecbus.EnergyReporter.
func (u *UART) AccessEnergy(k ecbus.Kind) float64 {
	if k == ecbus.Write {
		return 3.4e-12 // driving the pad predriver FIFO
	}
	return 1.6e-12
}

// TRNG models the true random number generator: a free-running
// ring-oscillator sampler, simulated by an LFSR advanced every cycle so
// readout values depend on sampling time (deterministic per run).
//
// CTRL bits: 0 enable (reset value 1).
type TRNG struct {
	cfg  ecbus.SlaveConfig
	lfsr *logic.LFSR
	ctrl uint32

	reads uint64
}

// NewTRNG creates the TRNG slave; seed selects the simulated noise
// source state.
func NewTRNG(k *sim.Kernel, name string, base uint64, seed uint64) *TRNG {
	t := &TRNG{
		cfg: ecbus.SlaveConfig{
			Name: name, Base: base, Size: 0x10,
			ReadWait: 2, // sampling + whitening latency
			Readable: true, Writable: true,
		},
		lfsr: logic.NewLFSR(seed),
		ctrl: 1,
	}
	k.At(sim.Rising, name, func(uint64) {
		if t.ctrl&1 != 0 {
			t.lfsr.Next() // free-running oscillator
		}
	})
	return t
}

// Config returns the slave configuration.
func (t *TRNG) Config() ecbus.SlaveConfig { return t.cfg }

// Reads returns the number of DATA register reads.
func (t *TRNG) Reads() uint64 { return t.reads }

// ReadWord implements ecbus.Slave.
func (t *TRNG) ReadWord(addr uint64, _ ecbus.Width) (uint32, bool) {
	switch addr - t.cfg.Base {
	case TrngData:
		t.reads++
		// Whitening stage: fold and diffuse the sampled oscillator state
		// (this is the latency the ReadWait models).
		s := t.lfsr.Next()
		s ^= s >> 29
		return uint32((s * 0x9E3779B97F4A7C15) >> 32), true
	case TrngStatus:
		return t.ctrl & 1, true // ready whenever enabled
	case TrngCtrl:
		return t.ctrl, true
	}
	return 0, false
}

// WriteWord implements ecbus.Slave.
func (t *TRNG) WriteWord(addr uint64, data uint32, _ ecbus.Width) bool {
	switch addr - t.cfg.Base {
	case TrngCtrl:
		t.ctrl = data
	case TrngData, TrngStatus:
		// read-only; ignored
	default:
		return false
	}
	return true
}

// AccessEnergy implements ecbus.EnergyReporter: keeping the oscillator
// bank sampling makes TRNG reads the most expensive peripheral access.
func (t *TRNG) AccessEnergy(ecbus.Kind) float64 { return 5.2e-12 }
