package main

import (
	"reflect"
	"strings"
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

// declsOf builds declarations for the given symbols.
func declsOf(syms ...string) []decl {
	var ds []decl
	for _, s := range syms {
		ds = append(ds, decl{key: module + s, pos: "x.go:1", body: 1})
	}
	return ds
}

func allowOf(syms ...string) []entry {
	var es []entry
	for i, s := range syms {
		es = append(es, entry{symbol: s, reason: "r", line: i + 1})
	}
	return es
}

// TestCheckUnlisted: an unreached declaration no entry names fails the
// scan; a reached one is not reported at all.
func TestCheckUnlisted(t *testing.T) {
	reached := map[string]bool{module + "p.Linked": true}
	r := check(declsOf("p.Linked", "p.Orphan", "p.Listed"), reached, allowOf("p.Listed"))
	if r.unlisted != 1 || len(r.stale) != 0 || len(r.unreached) != 2 {
		t.Fatalf("check = %+v, want one unlisted of two unreached", r)
	}
	if u := r.unreached[0]; u.key != module+"p.Orphan" || u.allowed {
		t.Fatalf("first unreached %+v, want p.Orphan unlisted", u)
	}
	if !r.unreached[1].allowed {
		t.Fatal("listed declaration reported unlisted")
	}
}

// TestCheckStale: an entry whose symbol is now linked, or no longer
// declared, fails the scan.
func TestCheckStale(t *testing.T) {
	reached := map[string]bool{module + "p.Linked": true}
	r := check(declsOf("p.Linked"), reached, allowOf("p.Linked", "p.Gone"))
	if r.unlisted != 0 || len(r.stale) != 2 || r.stale[0].symbol != "p.Linked" || r.stale[1].symbol != "p.Gone" {
		t.Fatalf("check = %+v, want both entries stale", r)
	}
}

// TestCheckTypeEntryCoversMethods: an entry naming a type covers every
// unreached method of it, but not a function that merely shares the
// name's prefix.
func TestCheckTypeEntryCoversMethods(t *testing.T) {
	r := check(declsOf("p.T.A", "p.T.B", "p.TFunc"), map[string]bool{}, allowOf("p.T"))
	if r.unlisted != 1 || len(r.stale) != 0 {
		t.Fatalf("check = %+v, want only p.TFunc unlisted", r)
	}
	for _, u := range r.unreached {
		if want := u.key != module+"p.TFunc"; u.allowed != want {
			t.Errorf("%s allowed=%v, want %v", u.key, u.allowed, want)
		}
	}
}

// TestParseAllow skips blank lines and # comments and rejects entries
// without a reason or listed twice.
func TestParseAllow(t *testing.T) {
	got, err := parseAllow(strings.NewReader("# header\n\n  \np.F\tkept for a reason\n\t# indented comment\np.T\ttwo\twords\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []entry{{"p.F", "kept for a reason", 4}, {"p.T", "two\twords", 6}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseAllow = %+v, want %+v", got, want)
	}
	for _, bad := range []string{"p.F\n", "p.F\t\n", "p.F reason\n", "\treason\n", "p.F\ta\np.F\tb\n"} {
		if _, err := parseAllow(strings.NewReader(bad)); err == nil {
			t.Errorf("parseAllow(%q) accepted a malformed allowlist", bad)
		}
	}
}
