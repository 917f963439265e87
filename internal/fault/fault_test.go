package fault

import (
	"testing"

	"repro/internal/ecbus"
	"repro/internal/mem"
	"repro/internal/metrics"
)

// wrapCounted wraps s under plan with a registry counting the
// injections.
func wrapCounted(s ecbus.Slave, plan Plan) (*Injector, *metrics.Registry) {
	reg := metrics.New("L0")
	return Wrap(s, plan).AttachMetrics(reg), reg
}

func newTestRAM(t *testing.T) *mem.RAM {
	t.Helper()
	r := mem.NewRAM("ram", 0, 0x100, 0, 0)
	for a := uint64(0); a < 0x100; a += 4 {
		if !r.WriteWord(a, uint32(a)*0x0101, ecbus.W32) {
			t.Fatalf("seed write at %#x failed", a)
		}
	}
	return r
}

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		ok   bool
	}{
		{"zero", Plan{}, true},
		{"permille-high", Plan{Seed: 1, ReadErrPermille: 1001}, false},
		{"permille-negative", Plan{Seed: 1, WriteErrPermille: -1}, false},
		{"wait-no-max", Plan{Seed: 1, WaitPermille: 100}, false},
		{"wait-ok", Plan{Seed: 1, WaitPermille: 100, MaxExtraWait: 4}, true},
		{"negative-stretch", Plan{BusyStretch: -1}, false},
		{"scripted-misaligned", Plan{Scripted: []ScriptedFault{{Op: OpRead, Addr: 2}}}, false},
		{"scripted-bad-op", Plan{Scripted: []ScriptedFault{{Op: Op(9), Addr: 4}}}, false},
		{"scripted-ok", Plan{Scripted: []ScriptedFault{{Op: OpWrite, Addr: 8, After: 1, Count: 2}}}, true},
	}
	for _, c := range cases {
		if err := c.plan.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestPlanEmpty(t *testing.T) {
	if !(Plan{}).Empty() {
		t.Error("zero plan should be empty")
	}
	// Permilles without a seed stay inert, but the plan deliberately
	// reports non-empty only when something can actually fire.
	for _, p := range []Plan{
		{Seed: 1},
		{BusyStretch: 1},
		{Scripted: []ScriptedFault{{Op: OpRead, Addr: 0}}},
	} {
		if p.Empty() {
			t.Errorf("plan %+v should not be empty", p)
		}
	}
}

func TestNamedPlans(t *testing.T) {
	for _, name := range Names {
		p, ok := Named(name)
		if !ok {
			t.Fatalf("Named(%q) not found", name)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Named(%q) invalid: %v", name, err)
		}
		if name == "none" && !p.Empty() {
			t.Error(`plan "none" should be empty`)
		}
		if name != "none" && p.Empty() {
			t.Errorf("plan %q should not be empty", name)
		}
	}
	if _, ok := Named(""); !ok {
		t.Error(`Named("") should resolve to the empty plan`)
	}
	if _, ok := Named("bogus"); ok {
		t.Error(`Named("bogus") should not resolve`)
	}
}

func TestScriptedReadWindow(t *testing.T) {
	in, reg := wrapCounted(newTestRAM(t), Plan{Scripted: []ScriptedFault{
		{Op: OpRead, Addr: 0x10, After: 2, Count: 2},
	}})
	want := []bool{true, true, false, false, true, true}
	for i, ok := range want {
		_, got := in.ReadWord(0x10, ecbus.W32)
		if got != ok {
			t.Errorf("read %d: ok=%v, want %v", i, got, ok)
		}
	}
	// Other words are untouched.
	if _, ok := in.ReadWord(0x14, ecbus.W32); !ok {
		t.Error("unscripted word errored")
	}
	if s := reg.Snapshot().Fault; s.ReadErrors != 2 {
		t.Errorf("ReadErrors = %d, want 2", s.ReadErrors)
	}
}

func TestScriptedUnboundedWindow(t *testing.T) {
	in := Wrap(newTestRAM(t), Plan{Scripted: []ScriptedFault{
		{Op: OpWrite, Addr: 0x20, After: 1, Count: 0},
	}})
	if !in.WriteWord(0x20, 1, ecbus.W32) {
		t.Error("write before window should succeed")
	}
	for i := 0; i < 5; i++ {
		if in.WriteWord(0x20, 2, ecbus.W32) {
			t.Errorf("write %d inside unbounded window should fail", i+1)
		}
	}
}

func TestWriteSuppression(t *testing.T) {
	ram := newTestRAM(t)
	in := Wrap(ram, Plan{Scripted: []ScriptedFault{
		{Op: OpWrite, Addr: 0x30, After: 0, Count: 1},
	}})
	before, _ := ram.ReadWord(0x30, ecbus.W32)
	if in.WriteWord(0x30, 0xFFFF_FFFF, ecbus.W32) {
		t.Fatal("faulted write reported success")
	}
	after, _ := ram.ReadWord(0x30, ecbus.W32)
	if after != before {
		t.Errorf("suppressed write committed: %#x -> %#x", before, after)
	}
	if !in.WriteWord(0x30, 0x1234, ecbus.W32) {
		t.Fatal("write after window failed")
	}
	if got, _ := ram.ReadWord(0x30, ecbus.W32); got != 0x1234 {
		t.Errorf("post-window write lost: got %#x", got)
	}
}

func TestCorruption(t *testing.T) {
	ram := newTestRAM(t)
	in, reg := wrapCounted(ram, Plan{
		CorruptMask: 0xDEAD_BEEF,
		Scripted:    []ScriptedFault{{Op: OpRead, Addr: 0x40, After: 0, Count: 1}},
	})
	clean, _ := ram.ReadWord(0x40, ecbus.W32)
	got, ok := in.ReadWord(0x40, ecbus.W32)
	if ok {
		t.Fatal("faulted read reported success")
	}
	if got != clean^0xDEAD_BEEF {
		t.Errorf("corrupted data = %#x, want %#x", got, clean^0xDEAD_BEEF)
	}
	// The array itself is untouched; the next read returns clean data.
	if got, ok := in.ReadWord(0x40, ecbus.W32); !ok || got != clean {
		t.Errorf("post-error read = %#x ok=%v, want clean %#x", got, ok, clean)
	}
	if s := reg.Snapshot().Fault; s.Corruptions != 1 {
		t.Errorf("Corruptions = %d, want 1", s.Corruptions)
	}
}

// TestSeededDeterminism is the contract the cross-layer equivalence test
// relies on: two independent injector instances with the same plan make
// identical decisions for the same access sequence, regardless of when
// (in simulation time) the accesses happen.
func TestSeededDeterminism(t *testing.T) {
	plan := Plan{Seed: 0xBEEF, ReadErrPermille: 300, WriteErrPermille: 300}
	run := func() []bool {
		in := Wrap(newTestRAM(t), plan)
		var out []bool
		for a := uint64(0); a < 0x100; a += 4 {
			for n := 0; n < 3; n++ {
				_, ok := in.ReadWord(a, ecbus.W32)
				out = append(out, ok)
				out = append(out, in.WriteWord(a, uint32(a), ecbus.W32))
			}
		}
		return out
	}
	a, b := run(), run()
	var errs int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged between instances", i)
		}
		if !a[i] {
			errs++
		}
	}
	if errs == 0 {
		t.Error("300 permille over 384 beats injected nothing; seeding broken")
	}
	if errs == len(a) {
		t.Error("every beat errored; permille scaling broken")
	}
}

// waiterStub is a slave with a fixed dynamic wait, standing in for an
// EEPROM mid-programming.
type waiterStub struct {
	extra int
}

func (w *waiterStub) Config() ecbus.SlaveConfig {
	return ecbus.SlaveConfig{Name: "stub", Base: 0, Size: 0x100, Readable: true, Writable: true}
}
func (w *waiterStub) ReadWord(addr uint64, _ ecbus.Width) (uint32, bool)  { return 0, true }
func (w *waiterStub) WriteWord(addr uint64, _ uint32, _ ecbus.Width) bool { return true }
func (w *waiterStub) ExtraWait(ecbus.Kind, uint64) int                    { return w.extra }

func TestBusyStretch(t *testing.T) {
	in, reg := wrapCounted(&waiterStub{extra: 5}, Plan{BusyStretch: 2})
	if got := in.ExtraWait(ecbus.Write, 0x10); got != 15 {
		t.Errorf("ExtraWait = %d, want 15 (5 stretched by 1+2)", got)
	}
	if s := reg.Snapshot().Fault; s.Stretched != 10 {
		t.Errorf("Stretched = %d, want 10", s.Stretched)
	}
	// Idle device: nothing to stretch.
	idle := Wrap(&waiterStub{extra: 0}, Plan{BusyStretch: 2})
	if got := idle.ExtraWait(ecbus.Write, 0x10); got != 0 {
		t.Errorf("idle ExtraWait = %d, want 0", got)
	}
}

func TestWaitStorm(t *testing.T) {
	plan := Plan{Seed: 7, WaitPermille: 1000, MaxExtraWait: 4}
	in := Wrap(&waiterStub{}, plan)
	first := in.ExtraWait(ecbus.Read, 0x10)
	if first < 1 || first > 4 {
		t.Fatalf("storm length %d outside [1,4]", first)
	}
	// Layer invariance: the same (kind, address) samples identically no
	// matter how many times or when it is asked.
	for i := 0; i < 5; i++ {
		if got := in.ExtraWait(ecbus.Read, 0x10); got != first {
			t.Fatalf("resample %d: %d != %d", i, got, first)
		}
	}
	// Different kinds and addresses draw from independent streams; over
	// many keys at 1000 permille every key storms.
	for a := uint64(0); a < 0x400; a += 4 {
		if got := in.ExtraWait(ecbus.Write, a); got < 1 || got > 4 {
			t.Fatalf("addr %#x: storm %d outside [1,4]", a, got)
		}
	}
}

func TestZeroSeedDisablesRandom(t *testing.T) {
	in := Wrap(newTestRAM(t), Plan{ReadErrPermille: 1000, WriteErrPermille: 1000})
	for a := uint64(0); a < 0x100; a += 4 {
		if _, ok := in.ReadWord(a, ecbus.W32); !ok {
			t.Fatalf("zero-seed plan injected a read error at %#x", a)
		}
	}
	w := Wrap(&waiterStub{}, Plan{WaitPermille: 1000, MaxExtraWait: 8})
	if got := w.ExtraWait(ecbus.Read, 0); got != 0 {
		t.Errorf("zero-seed plan injected %d wait cycles", got)
	}
}

func TestWrapPanicsOnInvalidPlan(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Wrap accepted an invalid plan")
		}
	}()
	Wrap(newTestRAM(t), Plan{Seed: 1, ReadErrPermille: 2000})
}

func TestInnerErrorPassesThrough(t *testing.T) {
	// Reads outside the RAM's backing array fail in the inner slave; the
	// injector must forward that verbatim and not count it as injected.
	ram := mem.NewRAM("ram", 0, 0x10, 0, 0)
	in, reg := wrapCounted(ram, Plan{Seed: 1, CorruptMask: 0xFF})
	if ok := in.WriteWord(0x8, 0xAB, ecbus.W16); !ok {
		t.Fatal("16-bit write failed")
	}
	if s := reg.Snapshot().Fault; s.ReadErrors != 0 || s.WriteErrors != 0 {
		t.Errorf("pass-through counted as injection: %+v", s)
	}
}

func TestWithoutReadErrors(t *testing.T) {
	p := Plan{
		Seed:             9,
		ReadErrPermille:  500,
		WriteErrPermille: 400,
		WaitPermille:     100,
		MaxExtraWait:     4,
		CorruptMask:      0xFF,
		BusyStretch:      1,
		Scripted: []ScriptedFault{
			{Op: OpRead, Addr: 0x10},
			{Op: OpWrite, Addr: 0x20},
		},
	}
	q := p.WithoutReadErrors()
	if q.ReadErrPermille != 0 || q.CorruptMask != 0 {
		t.Fatalf("read-error knobs kept: %+v", q)
	}
	if len(q.Scripted) != 1 || q.Scripted[0].Op != OpWrite {
		t.Fatalf("scripted read window kept: %+v", q.Scripted)
	}
	if q.WriteErrPermille != 400 || q.WaitPermille != 100 || q.BusyStretch != 1 || q.Seed != 9 {
		t.Fatalf("unrelated knobs changed: %+v", q)
	}
	if q.Empty() {
		t.Fatal("projection of a non-empty seeded plan reported empty")
	}
	// A destructive-read slave behind the projection never sees an
	// injected read error.
	in := Wrap(newTestRAM(t), q)
	for a := uint64(0); a < 0x100; a += 4 {
		if _, ok := in.ReadWord(a, ecbus.W32); !ok {
			t.Fatalf("projected plan injected a read error at %#x", a)
		}
	}
}
