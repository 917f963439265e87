package main

import (
	"reflect"
	"testing"
)

// TestKeys pins the symbol normalization: every form the linker prints
// for a function or method maps to the declaration it came from.
func TestKeys(t *testing.T) {
	const p = "repro/internal/"
	cases := []struct {
		sym  string
		want []string
	}{
		{p + "tlm3.NewCounter", []string{p + "tlm3.NewCounter"}},
		{p + "tlm3.(*Counter).Access", []string{p + "tlm3.Counter", p + "tlm3.Counter.Access"}},
		{p + "apdu.Command.Bytes", []string{p + "apdu.Command", p + "apdu.Command.Bytes"}},
		// Generic methods print under shape names, nested brackets and
		// spaces included.
		{p + "ecbus.(*Ring[go.shape.*uint8]).Push", []string{p + "ecbus.Ring", p + "ecbus.Ring.Push"}},
		{p + "ecbus.(*Ring[go.shape.struct { " + p + "tlm2.tr *" + p + "ecbus.Transaction; " +
			p + "tlm2.readback []uint8 }]).Pop", []string{p + "ecbus.Ring", p + "ecbus.Ring.Pop"}},
		// Generic functions.
		{p + "serve.newMemo[go.shape.string,go.shape.[32]uint8]", []string{p + "serve.newMemo"}},
		{p + "metrics.sortedKeys[go.shape.uint64]", []string{p + "metrics.sortedKeys"}},
		// Closures, go/defer wrappers and method values reach their
		// enclosing declaration.
		{p + "platform.New.func1", []string{p + "platform.New", p + "platform.New.func1"}},
		{p + "serve.(*Server).worker.gowrap1", []string{p + "serve.Server", p + "serve.Server.worker"}},
		{p + "cpu.(*CPU).UnmaskIRQ-fm", []string{p + "cpu.CPU", p + "cpu.CPU.UnmaskIRQ"}},
		{p + "serve.(*memo[go.shape.int,go.shape.int]).get.func2",
			[]string{p + "serve.memo", p + "serve.memo.get"}},
		// A package-level symbol with no function name reaches nothing.
		{"repro/internal", nil},
	}
	for _, tc := range cases {
		if got := keys(tc.sym); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("keys(%q) = %q, want %q", tc.sym, got, tc.want)
		}
	}
}

// TestTextSymbols keeps only text symbols under the scanned module,
// names with spaces intact.
func TestTextSymbols(t *testing.T) {
	nm := []byte(`  4f09c0 T repro/internal/apdu.(*Card).Committed
  4e3220 T repro/internal/ecbus.(*Ring[go.shape.struct { a int; b bool }]).Any
  4f0000 t repro/internal/apdu.fail
  4f1000 T runtime.main
  5a0000 D repro/internal/apdu.table
         U repro/internal/apdu.missing
`)
	want := []string{
		"repro/internal/apdu.(*Card).Committed",
		"repro/internal/ecbus.(*Ring[go.shape.struct { a int; b bool }]).Any",
		"repro/internal/apdu.fail",
	}
	if got := textSymbols(nm); !reflect.DeepEqual(got, want) {
		t.Fatalf("textSymbols = %q, want %q", got, want)
	}
}
