// Package javacard implements the paper's case study (§4.3, Fig. 7): a
// Java Card virtual machine as a functional, untimed model whose
// communication is then refined onto the energy-aware transaction-level
// bus models.
//
// The functional model (Fig. 7a) consists of the bytecode interpreter,
// the memory manager, the firewall and the operand stack; the
// interpreter drives the stack through the Stack interface. In the
// refined model (Fig. 7b) the stack becomes a hardware slave behind the
// TLM bus: a MasterAdapter translates the interface calls into bus
// transactions on special function registers, and the SlaveAdapter (the
// register decode inside HardStack) restores the original stack
// interface calls. "During HW/SW interface evaluation we change the
// address map, organization of these registers and used bus
// transactions to access them" — package explore sweeps exactly those
// axes.
//
// The bytecode set is a self-contained Java-Card-flavoured subset
// (16-bit operand stack, shorts as the arithmetic type, static fields,
// object fields guarded by the applet firewall, static method
// invocation). Opcode values are this package's own; the structure —
// not the exact encoding — is what the case study exercises.
package javacard

import (
	"errors"
	"fmt"
)

// Bytecode opcodes.
const (
	OpNop    byte = 0x00
	OpPush   byte = 0x01 // push int16 immediate (2 operand bytes, BE)
	OpPop    byte = 0x02 // discard top
	OpDup    byte = 0x03
	OpSwap   byte = 0x04
	OpAdd    byte = 0x10
	OpSub    byte = 0x11
	OpMul    byte = 0x12
	OpNeg    byte = 0x13
	OpAnd    byte = 0x14
	OpOr     byte = 0x15
	OpXor    byte = 0x16
	OpShl    byte = 0x17
	OpShr    byte = 0x18
	OpLoad   byte = 0x20 // push local[n] (1 operand byte)
	OpStore  byte = 0x21 // pop into local[n]
	OpGetS   byte = 0x28 // push static[n]
	OpPutS   byte = 0x29 // pop into static[n]
	OpGetF   byte = 0x2A // obj, field operands: push field (firewalled)
	OpPutF   byte = 0x2B // obj, field operands: pop into field (firewalled)
	OpGoto   byte = 0x30 // signed 8-bit offset
	OpIfEq   byte = 0x31 // pop; branch if zero
	OpIfNe   byte = 0x32
	OpIfLt   byte = 0x33
	OpIfGt   byte = 0x34
	OpCmpEq  byte = 0x35 // pop b, a; branch if a == b
	OpCmpLt  byte = 0x36 // pop b, a; branch if a < b
	OpInvoke byte = 0x40 // method index operand
	OpReturn byte = 0x41
	OpSetCtx byte = 0x50 // switch firewall context (operand byte)
	OpNewArr byte = 0x60 // pop length; allocate array owned by ctx; push handle
	OpALoad  byte = 0x61 // pop index, handle; push element (firewalled)
	OpAStore byte = 0x62 // pop value, index, handle; store element (firewalled)
	OpArrLen byte = 0x63 // pop handle; push length
	OpHalt   byte = 0x7F
)

// Stack is the operand-stack interface the interpreter programs against
// — the HW/SW boundary of the case study. The pure functional model
// binds it to SoftStack; the refined model binds it to a MasterAdapter
// in front of the HardStack slave.
type Stack interface {
	Push(v int16) error
	Pop() (int16, error)
	Reset()
}

// Method is one static method: its code and argument count (arguments
// are popped into locals[0..NArgs-1], last argument on top).
type Method struct {
	Code  []byte
	NArgs int
}

// Program is an executable image for the VM.
type Program struct {
	Main    []byte
	Methods []Method
	Statics int // number of static fields
}

// frame is a saved interpreter activation.
type frame struct {
	code   []byte
	pc     int
	locals [16]int16
}

// VM is the bytecode interpreter of the case study. It is untimed: time
// (and energy) enter only through the Stack implementation it is bound
// to.
type VM struct {
	prog    Program
	stack   Stack
	mm      *MemoryManager
	fw      *Firewall
	statics []int16

	cur     frame
	callers []frame
	ctx     byte
	halted  bool

	Steps uint64 // executed bytecodes

	// FetchHook, when set, is invoked with the bytecode offset before
	// each Step. The refined platform model uses it to issue the
	// interpreter's own code-fetch traffic on the bus, so that stack
	// accesses interleave with instruction traffic as they would on the
	// real card (this makes the exploration's address-map axis
	// meaningful: the address bus Hamming distance between code memory
	// and stack SFRs depends on where the SFRs live). A returned error
	// (a fetch the bus failed or never completed) aborts the
	// interpreter before that bytecode.
	FetchHook func(pc int) error

	// StaticHook, when set, is invoked after each committed static-field
	// store (OpPutS) with the field index and value. The tear-aware
	// platform model uses it to mirror static state into persistent
	// memory through the transaction journal; a returned error (e.g.
	// power loss) aborts the interpreter at that bytecode.
	StaticHook func(idx int, v int16) error
}

// NewVM builds an interpreter over the given stack and runtime services.
func NewVM(prog Program, stack Stack, mm *MemoryManager, fw *Firewall) *VM {
	return &VM{
		prog:    prog,
		stack:   stack,
		mm:      mm,
		fw:      fw,
		statics: make([]int16, prog.Statics),
		cur:     frame{code: prog.Main},
	}
}

// Halted reports whether OpHalt was executed.
func (vm *VM) Halted() bool { return vm.halted }

// Static returns static field n (for result assertions).
func (vm *VM) Static(n int) int16 { return vm.statics[n] }

// errTrap wraps interpreter-level failures with the faulting pc.
func (vm *VM) errTrap(format string, a ...any) error {
	return fmt.Errorf("jcvm: pc=%d: %s", vm.cur.pc, fmt.Sprintf(format, a...))
}

// ErrHalted is returned by Step after the VM has halted.
var ErrHalted = errors.New("jcvm: halted")

// fetch returns the next code byte.
func (vm *VM) fetch() (byte, error) {
	if vm.cur.pc >= len(vm.cur.code) {
		return 0, vm.errTrap("fell off code")
	}
	b := vm.cur.code[vm.cur.pc]
	vm.cur.pc++
	return b, nil
}

// Step executes one bytecode.
func (vm *VM) Step() error {
	if vm.halted {
		return ErrHalted
	}
	if vm.FetchHook != nil {
		if err := vm.FetchHook(vm.cur.pc); err != nil {
			return err
		}
	}
	op, err := vm.fetch()
	if err != nil {
		return err
	}
	vm.Steps++

	pop := func() (int16, error) { return vm.stack.Pop() }
	push := func(v int16) error { return vm.stack.Push(v) }

	binop := func(f func(a, b int16) int16) error {
		b, err := pop()
		if err != nil {
			return err
		}
		a, err := pop()
		if err != nil {
			return err
		}
		return push(f(a, b))
	}
	branch := func(cond bool) error {
		off, err := vm.fetch()
		if err != nil {
			return err
		}
		if cond {
			vm.cur.pc += int(int8(off)) - 2 // relative to the opcode
		}
		return nil
	}

	switch op {
	case OpNop:
		return nil
	case OpPush:
		hi, err := vm.fetch()
		if err != nil {
			return err
		}
		lo, err := vm.fetch()
		if err != nil {
			return err
		}
		return push(int16(uint16(hi)<<8 | uint16(lo)))
	case OpPop:
		_, err := pop()
		return err
	case OpDup:
		v, err := pop()
		if err != nil {
			return err
		}
		if err := push(v); err != nil {
			return err
		}
		return push(v)
	case OpSwap:
		b, err := pop()
		if err != nil {
			return err
		}
		a, err := pop()
		if err != nil {
			return err
		}
		if err := push(b); err != nil {
			return err
		}
		return push(a)
	case OpAdd:
		return binop(func(a, b int16) int16 { return a + b })
	case OpSub:
		return binop(func(a, b int16) int16 { return a - b })
	case OpMul:
		return binop(func(a, b int16) int16 { return a * b })
	case OpNeg:
		v, err := pop()
		if err != nil {
			return err
		}
		return push(-v)
	case OpAnd:
		return binop(func(a, b int16) int16 { return a & b })
	case OpOr:
		return binop(func(a, b int16) int16 { return a | b })
	case OpXor:
		return binop(func(a, b int16) int16 { return a ^ b })
	case OpShl:
		return binop(func(a, b int16) int16 { return a << (uint(b) & 15) })
	case OpShr:
		return binop(func(a, b int16) int16 { return a >> (uint(b) & 15) })
	case OpLoad:
		n, err := vm.fetch()
		if err != nil {
			return err
		}
		if int(n) >= len(vm.cur.locals) {
			return vm.errTrap("local %d out of range", n)
		}
		return push(vm.cur.locals[n])
	case OpStore:
		n, err := vm.fetch()
		if err != nil {
			return err
		}
		if int(n) >= len(vm.cur.locals) {
			return vm.errTrap("local %d out of range", n)
		}
		v, err := pop()
		if err != nil {
			return err
		}
		vm.cur.locals[n] = v
		return nil
	case OpGetS:
		n, err := vm.fetch()
		if err != nil {
			return err
		}
		if int(n) >= len(vm.statics) {
			return vm.errTrap("static %d out of range", n)
		}
		return push(vm.statics[n])
	case OpPutS:
		n, err := vm.fetch()
		if err != nil {
			return err
		}
		if int(n) >= len(vm.statics) {
			return vm.errTrap("static %d out of range", n)
		}
		v, err := pop()
		if err != nil {
			return err
		}
		vm.statics[n] = v
		if vm.StaticHook != nil {
			return vm.StaticHook(int(n), v)
		}
		return nil
	case OpGetF:
		obj, err := vm.fetch()
		if err != nil {
			return err
		}
		fld, err := vm.fetch()
		if err != nil {
			return err
		}
		if err := vm.fw.Check(vm.ctx, int(obj)); err != nil {
			return vm.errTrap("%v", err)
		}
		v, err := vm.mm.GetField(int(obj), int(fld))
		if err != nil {
			return vm.errTrap("%v", err)
		}
		return push(v)
	case OpPutF:
		obj, err := vm.fetch()
		if err != nil {
			return err
		}
		fld, err := vm.fetch()
		if err != nil {
			return err
		}
		if err := vm.fw.Check(vm.ctx, int(obj)); err != nil {
			return vm.errTrap("%v", err)
		}
		v, err := pop()
		if err != nil {
			return err
		}
		if err := vm.mm.PutField(int(obj), int(fld), v); err != nil {
			return vm.errTrap("%v", err)
		}
		return nil
	case OpGoto:
		return branch(true)
	case OpIfEq, OpIfNe, OpIfLt, OpIfGt:
		v, err := pop()
		if err != nil {
			return err
		}
		switch op {
		case OpIfEq:
			return branch(v == 0)
		case OpIfNe:
			return branch(v != 0)
		case OpIfLt:
			return branch(v < 0)
		default:
			return branch(v > 0)
		}
	case OpCmpEq, OpCmpLt:
		b, err := pop()
		if err != nil {
			return err
		}
		a, err := pop()
		if err != nil {
			return err
		}
		if op == OpCmpEq {
			return branch(a == b)
		}
		return branch(a < b)
	case OpInvoke:
		n, err := vm.fetch()
		if err != nil {
			return err
		}
		if int(n) >= len(vm.prog.Methods) {
			return vm.errTrap("method %d out of range", n)
		}
		m := vm.prog.Methods[n]
		if len(vm.callers) >= 32 {
			return vm.errTrap("call stack overflow")
		}
		next := frame{code: m.Code}
		for i := m.NArgs - 1; i >= 0; i-- {
			v, err := pop()
			if err != nil {
				return err
			}
			next.locals[i] = v
		}
		vm.callers = append(vm.callers, vm.cur)
		vm.cur = next
		return nil
	case OpReturn:
		if len(vm.callers) == 0 {
			vm.halted = true
			return nil
		}
		vm.cur = vm.callers[len(vm.callers)-1]
		vm.callers = vm.callers[:len(vm.callers)-1]
		return nil
	case OpSetCtx:
		c, err := vm.fetch()
		if err != nil {
			return err
		}
		vm.ctx = c
		return nil
	case OpNewArr:
		n, err := pop()
		if err != nil {
			return err
		}
		if n < 0 {
			return vm.errTrap("negative array length %d", n)
		}
		h := vm.mm.New(int(n))
		vm.fw.Own(h, vm.ctx)
		return push(int16(h))
	case OpALoad:
		idx, err := pop()
		if err != nil {
			return err
		}
		h, err := pop()
		if err != nil {
			return err
		}
		if err := vm.fw.Check(vm.ctx, int(h)); err != nil {
			return vm.errTrap("%v", err)
		}
		v, err := vm.mm.GetField(int(h), int(idx))
		if err != nil {
			return vm.errTrap("%v", err)
		}
		return push(v)
	case OpAStore:
		v, err := pop()
		if err != nil {
			return err
		}
		idx, err := pop()
		if err != nil {
			return err
		}
		h, err := pop()
		if err != nil {
			return err
		}
		if err := vm.fw.Check(vm.ctx, int(h)); err != nil {
			return vm.errTrap("%v", err)
		}
		if err := vm.mm.PutField(int(h), int(idx), v); err != nil {
			return vm.errTrap("%v", err)
		}
		return nil
	case OpArrLen:
		h, err := pop()
		if err != nil {
			return err
		}
		if err := vm.fw.Check(vm.ctx, int(h)); err != nil {
			return vm.errTrap("%v", err)
		}
		return push(int16(vm.mm.Len(int(h))))
	case OpHalt:
		vm.halted = true
		return nil
	default:
		return vm.errTrap("illegal opcode %#x", op)
	}
}

// Run executes until halt, error, or maxSteps.
func (vm *VM) Run(maxSteps uint64) error {
	for i := uint64(0); i < maxSteps; i++ {
		if vm.halted {
			return nil
		}
		if err := vm.Step(); err != nil {
			return err
		}
	}
	if !vm.halted {
		return errors.New("jcvm: step budget exhausted")
	}
	return nil
}
