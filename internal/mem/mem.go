// Package mem provides the memory slaves of the smart-card platform
// (paper Fig. 1): mask ROM (256 kB program memory), EEPROM (32 kB data &
// program memory with long, self-timed programming cycles), Flash (64 kB
// program memory), and RAM / scratchpad.
//
// All memories implement ecbus.Slave: word-oriented access where writes
// merge only the byte lanes enabled by the EC merge pattern, and reads
// return the full aligned word (the master extracts its lanes). Wait
// states live in the SlaveConfig and are inserted by the bus models; the
// EEPROM and Flash additionally implement ecbus.DynamicWaiter to stall
// accesses that collide with an in-progress programming cycle.
package mem

import (
	"fmt"

	"repro/internal/ecbus"
)

// clock abstracts the kernel for self-timed memories; satisfied by
// *sim.Kernel.
type clock interface {
	Cycle() uint64
}

// laneMask returns the 32-bit write mask for the merge pattern of an
// access of width w at addr.
func laneMask(addr uint64, w ecbus.Width) uint32 {
	be, ok := ecbus.ByteEnables(addr, w)
	if !ok {
		return 0
	}
	var m uint32
	for i := 0; i < 4; i++ {
		if be&(1<<i) != 0 {
			m |= 0xFF << (8 * i)
		}
	}
	return m
}

// array is the shared storage core of all memory slaves.
type array struct {
	cfg  ecbus.SlaveConfig
	data []byte
}

func newArray(cfg ecbus.SlaveConfig) array {
	return array{cfg: cfg, data: make([]byte, cfg.Size)}
}

func (a *array) Config() ecbus.SlaveConfig { return a.cfg }

// word returns the aligned 32-bit word containing addr.
func (a *array) word(addr uint64) uint32 {
	off := (addr - a.cfg.Base) &^ 3
	if off+4 > uint64(len(a.data)) {
		return 0
	}
	return uint32(a.data[off]) | uint32(a.data[off+1])<<8 |
		uint32(a.data[off+2])<<16 | uint32(a.data[off+3])<<24
}

func (a *array) setWord(addr uint64, v, mask uint32) {
	off := (addr - a.cfg.Base) &^ 3
	if off+4 > uint64(len(a.data)) {
		return
	}
	old := a.word(addr)
	v = (old &^ mask) | (v & mask)
	a.data[off] = byte(v)
	a.data[off+1] = byte(v >> 8)
	a.data[off+2] = byte(v >> 16)
	a.data[off+3] = byte(v >> 24)
}

func (a *array) ReadWord(addr uint64, _ ecbus.Width) (uint32, bool) {
	if !a.cfg.Contains(addr) {
		return 0, false
	}
	return a.word(addr), true
}

// Load copies blob into the memory at byte offset off, for program and
// test-image initialization (bypasses bus timing and write protection).
func (a *array) Load(off uint64, blob []byte) error {
	if off+uint64(len(blob)) > uint64(len(a.data)) {
		return fmt.Errorf("mem: load of %d bytes at +%#x exceeds %q size %#x",
			len(blob), off, a.cfg.Name, a.cfg.Size)
	}
	copy(a.data[off:], blob)
	return nil
}

// LoadWords copies 32-bit words (little-endian) at byte offset off.
func (a *array) LoadWords(off uint64, words []uint32) error {
	blob := make([]byte, 4*len(words))
	for i, w := range words {
		blob[4*i] = byte(w)
		blob[4*i+1] = byte(w >> 8)
		blob[4*i+2] = byte(w >> 16)
		blob[4*i+3] = byte(w >> 24)
	}
	return a.Load(off, blob)
}

// Bytes exposes the raw storage for test assertions.
func (a *array) Bytes() []byte { return a.data }

// RAM is a read/write memory (also used for the scratchpad).
type RAM struct{ array }

// NewRAM creates a RAM slave. Scratchpads use waits of 0.
func NewRAM(name string, base, size uint64, addrWait, dataWait int) *RAM {
	return &RAM{newArray(ecbus.SlaveConfig{
		Name: name, Base: base, Size: size,
		AddrWait: addrWait, ReadWait: dataWait, WriteWait: dataWait,
		Readable: true, Writable: true, Executable: true,
	})}
}

// NewNVRAM creates a RAM-interface slave with NVM-class static timing:
// asymmetric read/write wait states, the writes carrying the per-word
// programming cost of an EEPROM/FRAM-style device. Unlike EEPROM's
// self-timed busy window (a DynamicWaiter coupled to the kernel clock),
// the programming wait here is folded into the write data phase as a
// static per-beat wait state, so the slave has no clock dependency —
// the timing model batched estimation requires, where lanes advance on
// independent cycle counters.
func NewNVRAM(name string, base, size uint64, addrWait, readWait, writeWait int) *RAM {
	return &RAM{newArray(ecbus.SlaveConfig{
		Name: name, Base: base, Size: size,
		AddrWait: addrWait, ReadWait: readWait, WriteWait: writeWait,
		Readable: true, Writable: true, Executable: true,
	})}
}

// WriteWord merges the enabled byte lanes into the word at addr.
func (r *RAM) WriteWord(addr uint64, data uint32, w ecbus.Width) bool {
	if !r.cfg.Contains(addr) {
		return false
	}
	r.setWord(addr, data, laneMask(addr, w))
	return true
}

// ROM is a mask-programmed read/execute-only memory. The bus controller
// blocks writes via the rights bits before they reach the slave; a write
// arriving anyway is a modelling error and fails.
type ROM struct{ array }

// NewROM creates a ROM slave.
func NewROM(name string, base, size uint64, addrWait, readWait int) *ROM {
	return &ROM{newArray(ecbus.SlaveConfig{
		Name: name, Base: base, Size: size,
		AddrWait: addrWait, ReadWait: readWait, WriteWait: 0,
		Readable: true, Writable: false, Executable: true,
	})}
}

// WriteWord always fails: ROM is not writable.
func (r *ROM) WriteWord(uint64, uint32, ecbus.Width) bool { return false }

// TornWord describes the outcome of a power loss inside an NVM
// programming window: the word whose programming was interrupted, the
// value it held before the write, the value it was being programmed
// to, the seeded indeterminate value it was left with, and the ordinal
// (1-based) of the interrupted programming operation.
type TornWord struct {
	Addr    uint64
	Old     uint32
	New     uint32
	Torn    uint32
	Ordinal uint64
}

// splitmix64 is the corruption model's seed mixer: a tiny, well-known
// integer hash whose output depends only on its input, so torn bit
// patterns are reproducible from (seed, addr, ordinal) alone.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// inflight tracks the most recent programming operation of a self-timed
// memory, so a tear landing inside its window can resolve the word to a
// seeded indeterminate state.
type inflight struct {
	addr uint64
	old  uint32
	next uint32
}

// tearAt implements the partial-write corruption model shared by EEPROM
// and Flash: if cycle lands inside the current programming window, the
// interrupted word's differing bits each independently resolve to the
// old or the new level under a seeded mask, and the torn value is
// written back into the array. Bits the write did not change are stable
// regardless of where the tear lands — only the cells being
// reprogrammed are indeterminate. The mask is a function of (seed,
// addr, ordinal) only, never of the cycle, so the corruption pattern is
// identical across simulation layers that time the same operation
// differently.
func tearAt(a *array, in inflight, programs, busyUntil, cycle, seed uint64) (TornWord, bool) {
	if programs == 0 || cycle >= busyUntil {
		return TornWord{}, false
	}
	diff := in.old ^ in.next
	mask := uint32(splitmix64(seed ^ splitmix64(in.addr) ^ programs))
	torn := (in.old &^ diff) | (mask & diff)
	a.setWord(in.addr, torn, 0xFFFF_FFFF)
	return TornWord{Addr: in.addr, Old: in.old, New: in.next, Torn: torn, Ordinal: programs}, true
}

// EEPROM models the smart card's 32 kB data & program memory: reads are
// moderately slow; a write starts a self-timed programming cycle of
// ProgramCycles bus clocks during which any further access to the device
// stalls (dynamic wait states).
type EEPROM struct {
	array
	clk           clock
	busyUntil     uint64
	ProgramCycles uint64
	programs      uint64 // completed programming operations
	last          inflight
}

// NewEEPROM creates an EEPROM slave; clk supplies the current cycle for
// the self-timed programming model.
func NewEEPROM(name string, base, size uint64, clk clock) *EEPROM {
	return &EEPROM{
		array: newArray(ecbus.SlaveConfig{
			Name: name, Base: base, Size: size,
			AddrWait: 1, ReadWait: 2, WriteWait: 3,
			Readable: true, Writable: true, Executable: true,
		}),
		clk:           clk,
		ProgramCycles: 32,
	}
}

// WriteWord merges lanes and starts a programming cycle.
func (e *EEPROM) WriteWord(addr uint64, data uint32, w ecbus.Width) bool {
	if !e.cfg.Contains(addr) {
		return false
	}
	old := e.word(addr)
	e.setWord(addr, data, laneMask(addr, w))
	e.last = inflight{addr: addr &^ 3, old: old, next: e.word(addr)}
	e.busyUntil = e.clk.Cycle() + e.ProgramCycles
	e.programs++
	return true
}

// TearAt applies the partial-write corruption model for a power loss at
// the given cycle: if it lands inside the current programming window,
// the interrupted word is left in a seeded indeterminate state (written
// into the array) and returned; otherwise the storage is untouched.
func (e *EEPROM) TearAt(cycle, seed uint64) (TornWord, bool) {
	return tearAt(&e.array, e.last, e.programs, e.busyUntil, cycle, seed)
}

// ExtraWait stalls any access landing inside a programming cycle.
func (e *EEPROM) ExtraWait(_ ecbus.Kind, _ uint64) int {
	now := e.clk.Cycle()
	if now >= e.busyUntil {
		return 0
	}
	return int(e.busyUntil - now)
}

// Programs returns the number of programming operations performed.
func (e *EEPROM) Programs() uint64 { return e.programs }

// Flash models the 64 kB program flash: fast reads, slow block-oriented
// writes with a shorter self-timed phase than EEPROM.
type Flash struct {
	array
	clk           clock
	busyUntil     uint64
	ProgramCycles uint64
	programs      uint64 // completed programming operations
	last          inflight
}

// NewFlash creates a Flash slave.
func NewFlash(name string, base, size uint64, clk clock) *Flash {
	return &Flash{
		array: newArray(ecbus.SlaveConfig{
			Name: name, Base: base, Size: size,
			AddrWait: 0, ReadWait: 1, WriteWait: 2,
			Readable: true, Writable: true, Executable: true,
		}),
		clk:           clk,
		ProgramCycles: 12,
	}
}

// WriteWord merges lanes and starts the programming phase.
func (f *Flash) WriteWord(addr uint64, data uint32, w ecbus.Width) bool {
	if !f.cfg.Contains(addr) {
		return false
	}
	old := f.word(addr)
	f.setWord(addr, data, laneMask(addr, w))
	f.last = inflight{addr: addr &^ 3, old: old, next: f.word(addr)}
	f.busyUntil = f.clk.Cycle() + f.ProgramCycles
	f.programs++
	return true
}

// ExtraWait stalls accesses during programming.
func (f *Flash) ExtraWait(_ ecbus.Kind, _ uint64) int {
	now := f.clk.Cycle()
	if now >= f.busyUntil {
		return 0
	}
	return int(f.busyUntil - now)
}
