package javacard

import "fmt"

// Builder assembles bytecode with label-resolved branches.
type Builder struct {
	code   []byte
	labels map[string]int
	fixes  []fix
}

type fix struct {
	pos   int // offset operand position; opcode at pos-1
	label string
}

// NewBuilder returns an empty bytecode builder.
func NewBuilder() *Builder {
	return &Builder{labels: map[string]int{}}
}

// Op appends an opcode with raw operand bytes.
func (b *Builder) Op(op byte, operands ...byte) *Builder {
	b.code = append(b.code, op)
	b.code = append(b.code, operands...)
	return b
}

// Push appends a 16-bit immediate push.
func (b *Builder) Push(v int16) *Builder {
	return b.Op(OpPush, byte(uint16(v)>>8), byte(uint16(v)))
}

// Label defines a branch target at the current position.
func (b *Builder) Label(name string) *Builder {
	b.labels[name] = len(b.code)
	return b
}

// Branch appends a branching opcode targeting a label.
func (b *Builder) Branch(op byte, label string) *Builder {
	b.code = append(b.code, op)
	b.fixes = append(b.fixes, fix{pos: len(b.code), label: label})
	b.code = append(b.code, 0)
	return b
}

// Build resolves branches and returns the code.
func (b *Builder) Build() ([]byte, error) {
	for _, f := range b.fixes {
		target, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("jcvm builder: undefined label %q", f.label)
		}
		off := target - (f.pos - 1) // relative to the opcode byte
		if off < -128 || off > 127 {
			return nil, fmt.Errorf("jcvm builder: branch to %q out of range (%d)", f.label, off)
		}
		b.code[f.pos] = byte(int8(off))
	}
	return b.code, nil
}

// MustBuild is Build that panics on error.
func (b *Builder) MustBuild() []byte {
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

// ArithLoop returns a program computing sum(1..n) into static 0 —
// the interpreter-bound workload of the case study.
func ArithLoop(n int16) Program {
	main := NewBuilder().
		Push(0).Op(OpStore, 0). // acc
		Push(n).Op(OpStore, 1). // i
		Label("loop").
		Op(OpLoad, 1).
		Branch(OpIfEq, "done"). // i == 0 ?
		Op(OpLoad, 0).Op(OpLoad, 1).Op(OpAdd).Op(OpStore, 0).
		Op(OpLoad, 1).Push(1).Op(OpSub).Op(OpStore, 1).
		Branch(OpGoto, "loop").
		Label("done").
		Op(OpLoad, 0).Op(OpPutS, 0).
		Op(OpHalt).
		MustBuild()
	return Program{Main: main, Statics: 1}
}

// StackChurn returns a stack-bound workload: rounds of pushing `depth`
// values and folding them with adds — maximizing operand-stack traffic,
// the worst case for the HW/SW interface.
func StackChurn(depth, rounds int16) Program {
	b := NewBuilder().
		Push(rounds).Op(OpStore, 1).
		Label("round").
		Op(OpLoad, 1).
		Branch(OpIfEq, "done")
	for i := int16(0); i < depth; i++ {
		b.Push(i + 1)
	}
	for i := int16(0); i < depth-1; i++ {
		b.Op(OpAdd)
	}
	b.Op(OpGetS, 0).Op(OpAdd).Op(OpPutS, 0).
		Op(OpLoad, 1).Push(1).Op(OpSub).Op(OpStore, 1).
		Branch(OpGoto, "round").
		Label("done").
		Op(OpHalt)
	return Program{Main: b.MustBuild(), Statics: 1}
}

// WalletObj is the balance object id of the wallet workload.
const WalletObj = 1

// WalletProgram assembles the applet-like workload: a balance object
// guarded by the firewall, debited by repeated static-method
// invocations. The credit/debit methods exercise invoke/return, field
// access and branches. Final balance lands in static 0.
func WalletProgram(initial, debit int16, times int16) Program {
	// method 0: debit(amount) -> balance -= amount if balance >= amount
	debitM := NewBuilder().
		Op(OpGetF, WalletObj, 0). // balance
		Op(OpLoad, 0).            // amount
		Branch(OpCmpLt, "skip").  // balance < amount ?
		Op(OpGetF, WalletObj, 0).
		Op(OpLoad, 0).Op(OpSub).
		Op(OpPutF, WalletObj, 0).
		Label("skip").
		Op(OpReturn).
		MustBuild()

	main := NewBuilder().
		Op(OpSetCtx, 1).
		Push(initial).Op(OpPutF, WalletObj, 0).
		Push(times).Op(OpStore, 2).
		Label("loop").
		Op(OpLoad, 2).
		Branch(OpIfEq, "done").
		Push(debit).Op(OpInvoke, 0).
		Op(OpLoad, 2).Push(1).Op(OpSub).Op(OpStore, 2).
		Branch(OpGoto, "loop").
		Label("done").
		Op(OpGetF, WalletObj, 0).Op(OpPutS, 0).
		Op(OpHalt).
		MustBuild()

	return Program{Main: main, Methods: []Method{{Code: debitM, NArgs: 1}}, Statics: 1}
}

// WalletRuntime builds the wallet's fresh per-run services: the balance
// object and its firewall ownership.
func WalletRuntime() (*MemoryManager, *Firewall) {
	mm := NewMemoryManager()
	mm.Alloc(WalletObj, 1)
	fw := NewFirewall()
	fw.Own(WalletObj, 1)
	return mm, fw
}

// Wallet returns the wallet program together with fresh runtime state —
// the functional-model view used by examples and tests.
func Wallet(initial, debit int16, times int16) (Program, *MemoryManager, *Firewall) {
	mm, fw := WalletRuntime()
	return WalletProgram(initial, debit, times), mm, fw
}

// DefaultRuntime builds empty per-run services for workloads that
// allocate nothing up front.
func DefaultRuntime() (*MemoryManager, *Firewall) {
	return NewMemoryManager(), NewFirewall()
}

// Workload names a case-study workload for the exploration harness. The
// program assembly is split from the runtime state so the exploration
// engine can assemble the (immutable) program once per sweep and share
// it read-only across worker goroutines, while every configuration
// evaluation still gets its own mutable heap and firewall.
type Workload struct {
	Name string
	// Program assembles the workload's bytecode image. It must be
	// deterministic and the returned Program must not be mutated by the
	// caller: sweeps share one copy across concurrent evaluations.
	Program func() Program
	// Runtime builds the mutable per-run services (object heap and
	// applet firewall); it is called once per configuration evaluation.
	Runtime func() (*MemoryManager, *Firewall)
}

// Make materializes the program together with fresh runtime state — the
// single-run view used by the functional model.
func (w Workload) Make() (Program, *MemoryManager, *Firewall) {
	mm, fw := w.Runtime()
	return w.Program(), mm, fw
}

// Workloads returns the standard case-study workload set.
func Workloads() []Workload {
	return []Workload{
		{Name: "arith-loop", Program: func() Program { return ArithLoop(60) }, Runtime: DefaultRuntime},
		{Name: "stack-churn", Program: func() Program { return StackChurn(8, 20) }, Runtime: DefaultRuntime},
		{Name: "wallet", Program: func() Program { return WalletProgram(1000, 7, 40) }, Runtime: WalletRuntime},
	}
}

// WorkloadByName resolves a workload name (the Workloads vocabulary).
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}
