package cpu

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/sim"
)

// state of the simple fetch/execute/memory engine.
type state int

const (
	stFetchWait state = iota // bus fetch in flight
	stReady                  // instruction latched, execute this cycle
	stMemWait                // data access in flight
	stHalted
)

// Config parameterizes a CPU instance.
type Config struct {
	PC     uint64 // reset program counter
	SP     uint32 // initial stack pointer ($sp)
	ICache bool   // enable the instruction cache
	Lines  int    // I-cache lines (direct mapped, 4-word lines); 0 = 64
}

// Stats counts architectural events.
type Stats struct {
	Instructions uint64
	Loads        uint64
	Stores       uint64
	Fetches      uint64 // bus fetch transactions (not cache hits)
	Branches     uint64
	Taken        uint64
}

// CPU is a MIPS32-subset instruction-set simulator driving an EC bus
// through the layer-independent Initiator interface. It executes at most
// one instruction per clock cycle: ALU throughput is one per cycle with
// fetches pipelined (or served by the I-cache); loads and stores occupy
// the extra cycles their bus transactions take. In its fetch and memory
// wait states the CPU presents the transaction until a bus holds it and
// then reads its stamp (core.Present).
//
// Execution fidelity: branch delay slots are architectural (the word
// after a branch/jump executes before the target); sub-word loads and
// stores use the EC merge patterns; misaligned accesses and bus errors
// fault the CPU (Fault reports the cause).
type CPU struct {
	bus core.Initiator

	regs [32]uint32
	pc   uint64 // address of the instruction to execute next
	npc  uint64 // address after that (branch targets land here)

	instr   uint32
	st      state
	fetchTr *ecbus.Transaction
	memTr   *ecbus.Transaction
	memOp   uint32 // opcode of the in-flight memory instruction
	memAddr uint64
	memReg  int

	icache *ICache
	ids    uint64
	fault  error
	stats  Stats

	// OnSyscall, when set, is invoked for the SYSCALL instruction with
	// the CPU so platform code can implement services ($v0 selects the
	// service by convention). A nil hook makes SYSCALL a no-op.
	OnSyscall func(c *CPU)

	// Interrupt delivery (wired by the platform to the interrupt
	// controller). Interrupts are taken at instruction boundaries
	// outside delay slots: the return address is saved in $k1, further
	// interrupts are masked until UnmaskIRQ (the controller's EOI), and
	// execution vectors to irqVector. Handlers return with `jr $k1`.
	irqCheck  func() bool
	irqVector uint64
	irqMasked bool
	irqTaken  uint64
}

// New creates a CPU bound to bus and registers it on the kernel's rising
// edge.
func New(k *sim.Kernel, bus core.Initiator, cfg Config) *CPU {
	c := &CPU{bus: bus, pc: cfg.PC, npc: cfg.PC + 4}
	c.regs[29] = cfg.SP
	if cfg.ICache {
		lines := cfg.Lines
		if lines <= 0 {
			lines = 64
		}
		c.icache = NewICache(lines)
	}
	k.At(sim.Rising, "cpu", c.tick)
	c.startFetch()
	return c
}

// Reg returns register r.
func (c *CPU) Reg(r int) uint32 { return c.regs[r] }

// SetReg writes register r ($zero writes are discarded).
func (c *CPU) SetReg(r int, v uint32) {
	if r != 0 {
		c.regs[r] = v
	}
}

// Halted reports whether the CPU stopped (BREAK, Halt or fault).
func (c *CPU) Halted() bool { return c.st == stHalted }

// Fault returns the fault that halted the CPU, or nil for a clean BREAK.
func (c *CPU) Fault() error { return c.fault }

// Stats returns a copy of the event counters.
func (c *CPU) Stats() Stats { return c.stats }

// ICacheStats returns hits and misses (zero when the cache is disabled).
func (c *CPU) ICacheStats() (hits, misses uint64) {
	if c.icache == nil {
		return 0, 0
	}
	return c.icache.Hits, c.icache.Misses
}

func (c *CPU) halt(err error) {
	c.st = stHalted
	if c.fault == nil {
		c.fault = err
	}
}

func (c *CPU) nextID() uint64 {
	c.ids++
	return c.ids
}

// EnableIRQ wires interrupt delivery: check is sampled at instruction
// boundaries; when it returns true (and interrupts are unmasked) the CPU
// vectors to vector with the return address in $k1.
func (c *CPU) EnableIRQ(check func() bool, vector uint64) {
	c.irqCheck = check
	c.irqVector = vector
}

// UnmaskIRQ re-enables interrupt delivery; platforms call it from the
// interrupt controller's end-of-interrupt (acknowledge) path.
func (c *CPU) UnmaskIRQ() { c.irqMasked = false }

// IRQsTaken returns the number of interrupts delivered.
func (c *CPU) IRQsTaken() uint64 { return c.irqTaken }

// takeIRQ delivers a pending interrupt at an instruction boundary if
// allowed; reports whether one was taken. Delivery is suppressed inside
// delay slots (npc not sequential), exactly like MIPS hardware defers
// interrupts on branch shadows.
func (c *CPU) takeIRQ() bool {
	if c.irqCheck == nil || c.irqMasked || !c.irqCheck() {
		return false
	}
	if c.npc != c.pc+4 {
		return false // in a branch shadow; deliver after the slot
	}
	c.irqMasked = true
	c.irqTaken++
	c.SetReg(27, uint32(c.pc)) // $k1 = return address
	c.pc = c.irqVector
	c.npc = c.irqVector + 4
	c.startFetch()
	return true
}

func (c *CPU) tick(uint64) {
	switch c.st {
	case stHalted:
		return
	case stMemWait:
		bs := core.Present(c.bus, c.memTr)
		if !bs.Done() {
			return
		}
		if bs == ecbus.StateError {
			c.halt(fmt.Errorf("cpu: bus error on %v at %#x (pc %#x)", c.memTr.Kind, c.memTr.Addr, c.pc))
			return
		}
		c.finishLoad()
		if c.takeIRQ() {
			return
		}
		c.startFetch()
	case stFetchWait:
		bs := core.Present(c.bus, c.fetchTr)
		if !bs.Done() {
			return
		}
		if bs == ecbus.StateError {
			c.halt(fmt.Errorf("cpu: instruction bus error at %#x", c.fetchTr.Addr))
			return
		}
		c.captureFetch()
		if c.takeIRQ() {
			return // latched instruction discarded; refetched on return
		}
		c.execute()
	case stReady:
		if c.takeIRQ() {
			return
		}
		c.execute()
	}
}

// startFetch obtains the next instruction: from the I-cache (hit ->
// execute next cycle) or via a bus fetch (single word, or a burst line
// refill when the cache is enabled).
func (c *CPU) startFetch() {
	if c.pc%4 != 0 {
		c.halt(fmt.Errorf("cpu: misaligned pc %#x", c.pc))
		return
	}
	if c.icache != nil {
		if w, ok := c.icache.Lookup(c.pc); ok {
			c.instr = w
			c.st = stReady
			return
		}
		line := c.pc &^ 15
		tr, err := ecbus.NewBurst(c.nextID(), ecbus.Fetch, line, nil)
		if err != nil {
			c.halt(err)
			return
		}
		c.fetchTr = tr
	} else {
		tr, err := ecbus.NewSingle(c.nextID(), ecbus.Fetch, c.pc, ecbus.W32, 0)
		if err != nil {
			c.halt(err)
			return
		}
		c.fetchTr = tr
	}
	c.stats.Fetches++
	c.st = stFetchWait
	if bs := c.bus.Access(c.fetchTr); bs == ecbus.StateError {
		c.halt(fmt.Errorf("cpu: instruction bus error at %#x", c.fetchTr.Addr))
	}
}

// captureFetch latches the fetched word (and fills the cache line).
func (c *CPU) captureFetch() {
	if c.icache != nil {
		c.icache.Fill(c.fetchTr.Addr, c.fetchTr.Data)
		c.instr = c.fetchTr.Data[(c.pc>>2)&3]
	} else {
		c.instr = c.fetchTr.Data[0]
	}
	c.fetchTr = nil
}

// advance moves the PC past the executed instruction; branches replace
// the post-delay-slot target.
func (c *CPU) advance(branchTarget uint64, taken bool) {
	c.pc = c.npc
	if taken {
		c.npc = branchTarget
	} else {
		c.npc = c.pc + 4
	}
}

// execute runs exactly one instruction.
func (c *CPU) execute() {
	w := c.instr
	c.stats.Instructions++
	r := &c.regs

	branch := false
	var target uint64

	switch opcode(w) {
	case opSpecial:
		switch funct(w) {
		case fnSll:
			c.SetReg(rd(w), r[rt(w)]<<shamt(w))
		case fnSrl:
			c.SetReg(rd(w), r[rt(w)]>>shamt(w))
		case fnSra:
			c.SetReg(rd(w), uint32(int32(r[rt(w)])>>shamt(w)))
		case fnSllv:
			c.SetReg(rd(w), r[rt(w)]<<(r[rs(w)]&31))
		case fnSrlv:
			c.SetReg(rd(w), r[rt(w)]>>(r[rs(w)]&31))
		case fnSrav:
			c.SetReg(rd(w), uint32(int32(r[rt(w)])>>(r[rs(w)]&31)))
		case fnJr:
			branch, target = true, uint64(r[rs(w)])
			c.stats.Branches++
			c.stats.Taken++
		case fnJalr:
			c.SetReg(rd(w), uint32(c.npc+4))
			branch, target = true, uint64(r[rs(w)])
			c.stats.Branches++
			c.stats.Taken++
		case fnSyscall:
			if c.OnSyscall != nil {
				c.OnSyscall(c)
				if c.st == stHalted {
					return
				}
			}
		case fnBreak:
			c.st = stHalted
			return
		case fnAddu:
			c.SetReg(rd(w), r[rs(w)]+r[rt(w)])
		case fnSubu:
			c.SetReg(rd(w), r[rs(w)]-r[rt(w)])
		case fnAnd:
			c.SetReg(rd(w), r[rs(w)]&r[rt(w)])
		case fnOr:
			c.SetReg(rd(w), r[rs(w)]|r[rt(w)])
		case fnXor:
			c.SetReg(rd(w), r[rs(w)]^r[rt(w)])
		case fnNor:
			c.SetReg(rd(w), ^(r[rs(w)] | r[rt(w)]))
		case fnSlt:
			c.SetReg(rd(w), b2u(int32(r[rs(w)]) < int32(r[rt(w)])))
		case fnSltu:
			c.SetReg(rd(w), b2u(r[rs(w)] < r[rt(w)]))
		default:
			c.halt(fmt.Errorf("cpu: reserved SPECIAL funct %#x at %#x", funct(w), c.pc))
			return
		}
	case opSpecial2:
		if funct(w) == fnMul {
			c.SetReg(rd(w), uint32(int32(r[rs(w)])*int32(r[rt(w)])))
		} else {
			c.halt(fmt.Errorf("cpu: reserved SPECIAL2 funct %#x at %#x", funct(w), c.pc))
			return
		}
	case opRegimm:
		c.stats.Branches++
		cond := false
		switch rt(w) {
		case rtBltz:
			cond = int32(r[rs(w)]) < 0
		case rtBgez:
			cond = int32(r[rs(w)]) >= 0
		default:
			c.halt(fmt.Errorf("cpu: reserved REGIMM %#x at %#x", rt(w), c.pc))
			return
		}
		if cond {
			branch, target = true, branchTarget(c.npc, w)
			c.stats.Taken++
		}
	case opJ:
		branch, target = true, jumpTarget(c.npc, w)
		c.stats.Branches++
		c.stats.Taken++
	case opJal:
		c.SetReg(31, uint32(c.npc+4))
		branch, target = true, jumpTarget(c.npc, w)
		c.stats.Branches++
		c.stats.Taken++
	case opBeq, opBne, opBlez, opBgtz:
		c.stats.Branches++
		var cond bool
		switch opcode(w) {
		case opBeq:
			cond = r[rs(w)] == r[rt(w)]
		case opBne:
			cond = r[rs(w)] != r[rt(w)]
		case opBlez:
			cond = int32(r[rs(w)]) <= 0
		case opBgtz:
			cond = int32(r[rs(w)]) > 0
		}
		if cond {
			branch, target = true, branchTarget(c.npc, w)
			c.stats.Taken++
		}
	case opAddiu:
		c.SetReg(rt(w), r[rs(w)]+uint32(simm16(w)))
	case opSlti:
		c.SetReg(rt(w), b2u(int32(r[rs(w)]) < simm16(w)))
	case opSltiu:
		c.SetReg(rt(w), b2u(r[rs(w)] < uint32(simm16(w))))
	case opAndi:
		c.SetReg(rt(w), r[rs(w)]&imm16(w))
	case opOri:
		c.SetReg(rt(w), r[rs(w)]|imm16(w))
	case opXori:
		c.SetReg(rt(w), r[rs(w)]^imm16(w))
	case opLui:
		c.SetReg(rt(w), imm16(w)<<16)
	case opLb, opLbu, opLh, opLhu, opLw, opSb, opSh, opSw:
		if !c.issueMem(w) {
			return
		}
		c.advance(0, false)
		return
	default:
		c.halt(fmt.Errorf("cpu: reserved opcode %#x at %#x", opcode(w), c.pc))
		return
	}

	c.advance(target, branch)
	c.startFetch()
}

// issueMem builds and issues the data transaction of a load/store.
func (c *CPU) issueMem(w uint32) bool {
	addr := uint64(c.regs[rs(w)] + uint32(simm16(w)))
	var width ecbus.Width
	switch opcode(w) {
	case opLb, opLbu, opSb:
		width = ecbus.W8
	case opLh, opLhu, opSh:
		width = ecbus.W16
	default:
		width = ecbus.W32
	}
	kind := ecbus.Read
	var data uint32
	if opcode(w) == opSb || opcode(w) == opSh || opcode(w) == opSw {
		kind = ecbus.Write
		data = c.regs[rt(w)] << (8 * (addr & 3)) // place on byte lanes
		c.stats.Stores++
	} else {
		c.stats.Loads++
	}
	tr, err := ecbus.NewSingle(c.nextID(), kind, addr, width, data)
	if err != nil {
		c.halt(fmt.Errorf("cpu: %v (pc %#x)", err, c.pc))
		return false
	}
	c.memTr, c.memOp, c.memAddr, c.memReg = tr, opcode(w), addr, rt(w)
	c.st = stMemWait
	if bs := c.bus.Access(tr); bs == ecbus.StateError {
		c.halt(fmt.Errorf("cpu: bus error on %v at %#x (pc %#x)", kind, addr, c.pc))
		return false
	}
	return true
}

// finishLoad extracts the addressed lanes of a completed load.
func (c *CPU) finishLoad() {
	word := c.memTr.Data[0]
	lane := c.memAddr & 3
	switch c.memOp {
	case opLb:
		c.SetReg(c.memReg, uint32(int32(int8(word>>(8*lane)))))
	case opLbu:
		c.SetReg(c.memReg, word>>(8*lane)&0xFF)
	case opLh:
		c.SetReg(c.memReg, uint32(int32(int16(word>>(8*lane)))))
	case opLhu:
		c.SetReg(c.memReg, word>>(8*lane)&0xFFFF)
	case opLw:
		c.SetReg(c.memReg, word)
	}
	c.memTr = nil
}

func branchTarget(npc uint64, w uint32) uint64 {
	return npc + uint64(int64(simm16(w))<<2)
}

func jumpTarget(npc uint64, w uint32) uint64 {
	return npc&^0x0FFFFFFF | uint64(target(w))<<2
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
