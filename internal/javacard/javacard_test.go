package javacard

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/sim"
	"repro/internal/tlm1"
	"repro/internal/tlm2"
)

func runSoft(t *testing.T, prog Program, mm *MemoryManager, fw *Firewall) *VM {
	t.Helper()
	vm := NewVM(prog, &SoftStack{}, mm, fw)
	if err := vm.Run(1_000_000); err != nil {
		t.Fatalf("functional run: %v", err)
	}
	return vm
}

func TestArithLoopFunctional(t *testing.T) {
	vm := runSoft(t, ArithLoop(10), NewMemoryManager(), NewFirewall())
	if got := vm.Static(0); got != 55 {
		t.Fatalf("sum(1..10) = %d, want 55", got)
	}
}

func TestStackChurnFunctional(t *testing.T) {
	vm := runSoft(t, StackChurn(5, 3), NewMemoryManager(), NewFirewall())
	// each round adds 1+2+3+4+5 = 15; 3 rounds = 45.
	if got := vm.Static(0); got != 45 {
		t.Fatalf("churn sum = %d, want 45", got)
	}
}

func TestWalletFunctional(t *testing.T) {
	prog, mm, fw := Wallet(1000, 7, 40)
	vm := runSoft(t, prog, mm, fw)
	if got := vm.Static(0); got != 1000-7*40 {
		t.Fatalf("balance = %d, want %d", got, 1000-7*40)
	}
	if fw.Violations != 0 {
		t.Fatalf("unexpected firewall violations: %d", fw.Violations)
	}
}

func TestWalletInsufficientFunds(t *testing.T) {
	prog, mm, fw := Wallet(10, 7, 5) // only one debit fits
	vm := runSoft(t, prog, mm, fw)
	if got := vm.Static(0); got != 3 {
		t.Fatalf("balance = %d, want 3", got)
	}
}

func TestFirewallDeniesForeignContext(t *testing.T) {
	mm := NewMemoryManager()
	mm.Alloc(WalletObj, 1)
	fw := NewFirewall()
	fw.Own(WalletObj, 1)
	// Context 2 touches object owned by context 1.
	code := NewBuilder().
		Op(OpSetCtx, 2).
		Push(5).Op(OpPutF, WalletObj, 0).
		Op(OpHalt).MustBuild()
	vm := NewVM(Program{Main: code}, &SoftStack{}, mm, fw)
	err := vm.Run(100)
	if err == nil || !strings.Contains(err.Error(), "firewall") {
		t.Fatalf("expected firewall violation, got %v", err)
	}
	if fw.Violations != 1 {
		t.Fatalf("violations = %d", fw.Violations)
	}
}

func TestFirewallShareableObject(t *testing.T) {
	fw := NewFirewall()
	fw.Own(3, 1)
	fw.Share(3)
	if err := fw.Check(2, 3); err != nil {
		t.Fatalf("shareable object denied: %v", err)
	}
	if err := fw.Check(2, 9); err == nil {
		t.Fatal("unowned object allowed")
	}
}

func TestMemoryManagerBounds(t *testing.T) {
	mm := NewMemoryManager()
	mm.Alloc(1, 2)
	if err := mm.PutField(1, 1, 42); err != nil {
		t.Fatal(err)
	}
	if v, _ := mm.GetField(1, 1); v != 42 {
		t.Fatal("field readback wrong")
	}
	if _, err := mm.GetField(1, 5); err == nil {
		t.Fatal("out-of-range field allowed")
	}
	if _, err := mm.GetField(9, 0); err == nil {
		t.Fatal("missing object allowed")
	}
}

func TestVMErrorsOnIllegalOpcode(t *testing.T) {
	vm := NewVM(Program{Main: []byte{0xEE}}, &SoftStack{}, NewMemoryManager(), NewFirewall())
	if err := vm.Run(10); err == nil {
		t.Fatal("illegal opcode not trapped")
	}
}

func TestVMStackUnderflowTrapped(t *testing.T) {
	vm := NewVM(Program{Main: []byte{OpAdd}}, &SoftStack{}, NewMemoryManager(), NewFirewall())
	if err := vm.Run(10); err == nil {
		t.Fatal("underflow not trapped")
	}
}

func TestSoftStackBasics(t *testing.T) {
	var s SoftStack
	s.Push(1)
	s.Push(2)
	if s.Depth() != 2 {
		t.Fatal("depth wrong")
	}
	if v, _ := s.Pop(); v != 2 {
		t.Fatal("LIFO broken")
	}
	s.Reset()
	if s.Depth() != 0 {
		t.Fatal("reset failed")
	}
	if _, err := s.Pop(); err == nil {
		t.Fatal("underflow not reported")
	}
}

// refined builds the Fig. 7b system: hard stack behind a TLM bus.
func refined(t *testing.T, layer int, org Organization) (*sim.Kernel, *MasterAdapter, *HardStack) {
	t.Helper()
	k := sim.New(0)
	hs := NewHardStack("stack", 0x1000)
	m := ecbus.MustMap(hs)
	var bus interface {
		Access(*ecbus.Transaction) ecbus.BusState
	}
	if layer == 1 {
		bus = tlm1.New(k, m)
	} else {
		bus = tlm2.New(k, m)
	}
	return k, NewMasterAdapter(k, bus, 0x1000, org, core.RetryPolicy{}), hs
}

func TestHardStackAllOrganizationsLIFO(t *testing.T) {
	for _, org := range Organizations {
		for _, layer := range []int{1, 2} {
			_, ad, hs := refined(t, layer, org)
			vals := []int16{5, -3, 32767, -32768, 0, 77}
			for _, v := range vals {
				if err := ad.Push(v); err != nil {
					t.Fatalf("%v L%d: push: %v", org, layer, err)
				}
			}
			if d := ad.Depth(); d != len(vals) {
				t.Fatalf("%v L%d: depth = %d, want %d", org, layer, d, len(vals))
			}
			for i := len(vals) - 1; i >= 0; i-- {
				v, err := ad.Pop()
				if err != nil {
					t.Fatalf("%v L%d: pop: %v", org, layer, err)
				}
				if v != vals[i] {
					t.Fatalf("%v L%d: pop = %d, want %d", org, layer, v, vals[i])
				}
			}
			if hs.Depth() != 0 {
				t.Fatalf("%v L%d: residue in hardware stack", org, layer)
			}
		}
	}
}

func TestHardStackUnderflowIsBusError(t *testing.T) {
	_, ad, _ := refined(t, 1, OrgHalf)
	if _, err := ad.Pop(); err == nil {
		t.Fatal("pop from empty hardware stack did not error")
	}
}

func TestHardStackOverflowIsBusError(t *testing.T) {
	_, ad, _ := refined(t, 1, OrgHalf)
	var err error
	for i := 0; i <= HardStackSize; i++ {
		if err = ad.Push(int16(i)); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("overflow not reported")
	}
}

func TestRefinedVMMatchesFunctional(t *testing.T) {
	for _, w := range Workloads() {
		progF, mmF, fwF := w.Make()
		ref := NewVM(progF, &SoftStack{}, mmF, fwF)
		if err := ref.Run(1_000_000); err != nil {
			t.Fatalf("%s functional: %v", w.Name, err)
		}
		for _, org := range Organizations {
			prog, mm, fw := w.Make()
			_, ad, _ := refined(t, 1, org)
			vm := NewVM(prog, ad, mm, fw)
			if err := vm.Run(1_000_000); err != nil {
				t.Fatalf("%s %v: %v", w.Name, org, err)
			}
			if vm.Static(0) != ref.Static(0) {
				t.Fatalf("%s %v: result %d != functional %d",
					w.Name, org, vm.Static(0), ref.Static(0))
			}
		}
	}
}

func TestOrganizationTransactionCounts(t *testing.T) {
	// Byte staging needs 3 transactions per push and 3 per pop; halfword
	// and packed need 1+1; burst batches pushes. The counts drive the
	// case study's energy differences.
	counts := map[Organization]uint64{}
	for _, org := range Organizations {
		prog, mm, fw := StackChurn(8, 10), NewMemoryManager(), NewFirewall()
		_, ad, _ := refined(t, 1, org)
		vm := NewVM(prog, ad, mm, fw)
		if err := vm.Run(1_000_000); err != nil {
			t.Fatalf("%v: %v", org, err)
		}
		counts[org] = ad.Transactions
	}
	if !(counts[OrgByte] > counts[OrgHalf]) {
		t.Errorf("byte-staged (%d) not more transactions than halfword (%d)",
			counts[OrgByte], counts[OrgHalf])
	}
	if !(counts[OrgBurst] < counts[OrgHalf]) {
		t.Errorf("burst (%d) not fewer transactions than halfword (%d)",
			counts[OrgBurst], counts[OrgHalf])
	}
	if counts[OrgPacked] != counts[OrgHalf] {
		t.Errorf("packed (%d) and halfword (%d) transaction counts should match",
			counts[OrgPacked], counts[OrgHalf])
	}
}

func TestBuilderBranchResolution(t *testing.T) {
	code := NewBuilder().
		Push(1).
		Branch(OpIfNe, "end").
		Push(99).Op(OpPutS, 0).
		Label("end").
		Op(OpHalt).MustBuild()
	vm := NewVM(Program{Main: code, Statics: 1}, &SoftStack{}, NewMemoryManager(), NewFirewall())
	if err := vm.Run(100); err != nil {
		t.Fatal(err)
	}
	if vm.Static(0) != 0 {
		t.Fatal("branch not taken")
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder().Branch(OpGoto, "nowhere").Build(); err == nil {
		t.Fatal("undefined label accepted")
	}
	b := NewBuilder().Label("start")
	for i := 0; i < 100; i++ {
		b.Push(1).Op(OpPop)
	}
	b.Branch(OpGoto, "start")
	if _, err := b.Build(); err == nil {
		t.Fatal("out-of-range branch accepted")
	}
}

func TestVMStepAfterHalt(t *testing.T) {
	vm := NewVM(Program{Main: []byte{OpHalt}}, &SoftStack{}, NewMemoryManager(), NewFirewall())
	if err := vm.Run(10); err != nil {
		t.Fatal(err)
	}
	if err := vm.Step(); err != ErrHalted {
		t.Fatalf("Step after halt = %v", err)
	}
}

// TestFetchHookErrorAbortsStep: a code fetch the bus failed comes back
// from Step unchanged, before the bytecode runs.
func TestFetchHookErrorAbortsStep(t *testing.T) {
	errFetch := errors.New("fetch failed")
	vm := NewVM(ArithLoop(3), &SoftStack{}, NewMemoryManager(), NewFirewall())
	var pcs []int
	vm.FetchHook = func(pc int) error {
		pcs = append(pcs, pc)
		if len(pcs) == 3 {
			return errFetch
		}
		return nil
	}
	for i := 0; i < 2; i++ {
		if err := vm.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := vm.Step(); !errors.Is(err, errFetch) {
		t.Fatalf("Step = %v, want the hook's error", err)
	}
	if vm.Steps != 2 {
		t.Fatalf("Steps = %d, want 2: the failed fetch's bytecode must not run", vm.Steps)
	}
	if len(pcs) != 3 || pcs[2] <= pcs[1] {
		t.Fatalf("hook pcs %v", pcs)
	}
}

func TestInvokePassesArguments(t *testing.T) {
	// method 0: returns arg0 - arg1 into static 0
	m := NewBuilder().
		Op(OpLoad, 0).Op(OpLoad, 1).Op(OpSub).Op(OpPutS, 0).
		Op(OpReturn).MustBuild()
	main := NewBuilder().
		Push(50).Push(8).Op(OpInvoke, 0).
		Op(OpHalt).MustBuild()
	vm := NewVM(Program{Main: main, Methods: []Method{{Code: m, NArgs: 2}}, Statics: 1},
		&SoftStack{}, NewMemoryManager(), NewFirewall())
	if err := vm.Run(100); err != nil {
		t.Fatal(err)
	}
	if vm.Static(0) != 42 {
		t.Fatalf("invoke result = %d, want 42", vm.Static(0))
	}
}
