// Package crypto provides the cryptographic coprocessor of the
// smart-card platform. The paper's introduction motivates two power
// concerns for such cores: staying inside the supply budget of
// contact-less operation, and resistance against power analysis (SPA /
// DPA). This package supplies both sides of that story: a DES-like
// Feistel block-cipher engine exposed as an EC bus slave, and a
// per-cycle power-leakage trace following the classic Hamming-weight
// leakage model, which package analysis attacks with difference-of-means
// DPA.
//
// The cipher is a 16-round Feistel network on 64-bit blocks with 32-bit
// round keys — structurally DES-shaped (expansion omitted, one 4-bit
// S-box) so that round-1 subkey nibbles are recoverable by textbook DPA,
// while remaining compact and dependency-free. It is NOT a secure
// cipher; it is the reproducible stand-in for the proprietary
// coprocessor of the paper's platform.
package crypto

import (
	"repro/internal/ecbus"
	"repro/internal/logic"
	"repro/internal/sim"
)

// Rounds is the number of Feistel rounds.
const Rounds = 16

// CyclesPerRound is the engine latency per round.
const CyclesPerRound = 2

// sbox4 is a 4-bit S-box (the nonlinear element the DPA attack targets).
var sbox4 = [16]uint32{0xE, 0x4, 0xD, 0x1, 0x2, 0xF, 0xB, 0x8, 0x3, 0xA, 0x6, 0xC, 0x5, 0x9, 0x0, 0x7}

// Sbox exposes the S-box for power-analysis prediction models (package
// analysis guesses key nibbles by predicting S-box output bits).
func Sbox(x uint32) uint32 { return sbox4[x&0xF] }

// F is the Feistel round function: key mix, nibble-wise S-box
// substitution, diffusion rotate.
func F(r, k uint32) uint32 {
	x := r ^ k
	var y uint32
	for i := 0; i < 8; i++ {
		y |= sbox4[(x>>(4*i))&0xF] << (4 * i)
	}
	return y<<11 | y>>21
}

// Subkey returns the 32-bit round key of round i (0-based) for a 64-bit
// key: a rotating key schedule.
func Subkey(key uint64, i int) uint32 {
	rot := uint(7*i+1) % 64
	return uint32(key<<rot | key>>(64-rot))
}

// Encrypt runs the forward cipher on one 64-bit block.
func Encrypt(key, block uint64) uint64 {
	l, r := uint32(block>>32), uint32(block)
	for i := 0; i < Rounds; i++ {
		l, r = r, l^F(r, Subkey(key, i))
	}
	// Final swap-less output, as in DES pre-output.
	return uint64(r)<<32 | uint64(l)
}

// SFR byte offsets of the coprocessor register file.
const (
	RegKey0   = 0x00
	RegKey1   = 0x04
	RegData0  = 0x08
	RegData1  = 0x0C
	RegCtrl   = 0x10 // bit0 start, bit1 decrypt
	RegStatus = 0x14 // bit0 busy, bit1 done
	RegRes0   = 0x18
	RegRes1   = 0x1C
)

// LeakConfig parameterizes the Hamming-weight leakage model.
type LeakConfig struct {
	BaseJ     float64 // static per-cycle consumption while busy
	PerBitJ   float64 // leak per set bit of the round register
	NoiseJ    float64 // amplitude of the deterministic pseudo-noise
	NoiseSeed uint64
}

// DefaultLeak returns the leakage parameters used by the examples. The
// signal-to-noise ratio is chosen so single-trace SPA shows the round
// structure while DPA needs tens of traces — the regime the paper's
// power-analysis motivation describes.
func DefaultLeak() LeakConfig {
	return LeakConfig{BaseJ: 18e-12, PerBitJ: 0.85e-12, NoiseJ: 6e-12, NoiseSeed: 0xC0FFEE}
}

// Coprocessor is the memory-mapped crypto engine.
type Coprocessor struct {
	cfg  ecbus.SlaveConfig
	irq  interface{ Raise(int) }
	line int

	key    uint64
	data   uint64
	result uint64
	decr   bool
	busy   int // remaining busy cycles
	done   bool

	// engine state while busy
	l, r  uint32
	round int

	leak  LeakConfig
	noise *logic.LFSR
	trace []float64
	ops   uint64
}

// New creates the coprocessor slave and registers its engine process on
// the kernel's rising edge. irq may be nil; line is the interrupt line
// raised on completion.
func New(k *sim.Kernel, name string, base uint64, leak LeakConfig, irq interface{ Raise(int) }, line int) *Coprocessor {
	c := &Coprocessor{
		cfg: ecbus.SlaveConfig{
			Name: name, Base: base, Size: 0x20,
			AddrWait: 0, ReadWait: 1, WriteWait: 1,
			Readable: true, Writable: true,
		},
		irq:   irq,
		line:  line,
		leak:  leak,
		noise: logic.NewLFSR(leak.NoiseSeed),
	}
	k.At(sim.Rising, name, c.tick)
	return c
}

// Config returns the slave configuration.
func (c *Coprocessor) Config() ecbus.SlaveConfig { return c.cfg }

// Busy reports whether an operation is in progress.
func (c *Coprocessor) Busy() bool { return c.busy > 0 }

// Ops returns the number of completed operations.
func (c *Coprocessor) Ops() uint64 { return c.ops }

// Trace returns the accumulated per-cycle power samples (joules per
// cycle) of all operations so far; ResetTrace clears it.
func (c *Coprocessor) Trace() []float64 { return c.trace }

// ResetTrace clears the recorded power trace.
func (c *Coprocessor) ResetTrace() { c.trace = nil }

// TraceEnergy returns the total engine-internal energy recorded.
func (c *Coprocessor) TraceEnergy() float64 {
	var sum float64
	for _, s := range c.trace {
		sum += s
	}
	return sum
}

func hw32(v uint32) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// tick advances the engine one cycle while busy and records the leakage
// sample of the cycle.
func (c *Coprocessor) tick(uint64) {
	if c.busy == 0 {
		return
	}
	cycleInRound := (Rounds*CyclesPerRound - c.busy) % CyclesPerRound
	if cycleInRound == 0 {
		// Compute the round on its first cycle.
		i := c.round
		if c.decr {
			i = Rounds - 1 - c.round
		}
		k := Subkey(c.key, i)
		if c.decr {
			c.l, c.r = c.r^F(c.l, k), c.l
		} else {
			c.l, c.r = c.r, c.l^F(c.r, k)
		}
		c.round++
	}
	// Hamming-weight leakage of the freshly written round register plus
	// deterministic pseudo-noise.
	sample := c.leak.BaseJ + float64(hw32(c.r))*c.leak.PerBitJ +
		(float64(c.noise.NextRange(1000))/1000-0.5)*c.leak.NoiseJ
	c.trace = append(c.trace, sample)

	c.busy--
	if c.busy == 0 {
		if c.decr {
			c.result = uint64(c.l)<<32 | uint64(c.r)
		} else {
			c.result = uint64(c.r)<<32 | uint64(c.l)
		}
		c.done = true
		c.ops++
		if c.irq != nil {
			c.irq.Raise(c.line)
		}
	}
}

// start launches an operation.
func (c *Coprocessor) start(decrypt bool) {
	c.decr = decrypt
	c.done = false
	c.round = 0
	c.busy = Rounds * CyclesPerRound
	if decrypt {
		c.r, c.l = uint32(c.data>>32), uint32(c.data)
	} else {
		c.l, c.r = uint32(c.data>>32), uint32(c.data)
	}
}

// ReadWord implements ecbus.Slave.
func (c *Coprocessor) ReadWord(addr uint64, _ ecbus.Width) (uint32, bool) {
	switch addr - c.cfg.Base {
	case RegKey0, RegKey1:
		return 0, true // key register is write-only, reads as zero
	case RegData0:
		return uint32(c.data), true
	case RegData1:
		return uint32(c.data >> 32), true
	case RegCtrl:
		return 0, true
	case RegStatus:
		var s uint32
		if c.busy > 0 {
			s |= 1
		}
		if c.done {
			s |= 2
		}
		return s, true
	case RegRes0:
		return uint32(c.result), true
	case RegRes1:
		return uint32(c.result >> 32), true
	}
	return 0, false
}

// WriteWord implements ecbus.Slave.
func (c *Coprocessor) WriteWord(addr uint64, data uint32, _ ecbus.Width) bool {
	switch addr - c.cfg.Base {
	case RegKey0:
		c.key = c.key&^uint64(0xFFFFFFFF) | uint64(data)
	case RegKey1:
		c.key = c.key&0xFFFFFFFF | uint64(data)<<32
	case RegData0:
		c.data = c.data&^uint64(0xFFFFFFFF) | uint64(data)
	case RegData1:
		c.data = c.data&0xFFFFFFFF | uint64(data)<<32
	case RegCtrl:
		if data&1 != 0 && c.busy == 0 {
			c.start(data&2 != 0)
		}
	case RegStatus, RegRes0, RegRes1:
		// read-only; ignored
	default:
		return false
	}
	return true
}

// AccessEnergy implements ecbus.EnergyReporter (SFR file access cost;
// the engine's own consumption is in the leakage trace).
func (c *Coprocessor) AccessEnergy(ecbus.Kind) float64 { return 2.1e-12 }
