package ecbus

import (
	"strings"
	"testing"
)

// fakeSlave is a minimal Slave for map/decode tests.
type fakeSlave struct {
	cfg   SlaveConfig
	extra int
}

func (f *fakeSlave) Config() SlaveConfig                   { return f.cfg }
func (f *fakeSlave) ReadWord(uint64, Width) (uint32, bool) { return 0xA5A5A5A5, true }
func (f *fakeSlave) WriteWord(uint64, uint32, Width) bool  { return true }
func (f *fakeSlave) ExtraWait(Kind, uint64) int            { return f.extra }
func newFake(name string, base, size uint64) *fakeSlave {
	return &fakeSlave{cfg: SlaveConfig{
		Name: name, Base: base, Size: size,
		Readable: true, Writable: true, Executable: true,
	}}
}

func TestSlaveConfigContains(t *testing.T) {
	c := SlaveConfig{Name: "rom", Base: 0x1000, Size: 0x100}
	if !c.Contains(0x1000) || !c.Contains(0x10FF) {
		t.Fatal("range endpoints not contained")
	}
	if c.Contains(0xFFF) || c.Contains(0x1100) {
		t.Fatal("outside addresses contained")
	}
	if c.End() != 0x1100 {
		t.Fatalf("End = %#x", c.End())
	}
}

func TestSlaveConfigRights(t *testing.T) {
	c := SlaveConfig{Readable: true}
	if !c.Allows(Read) || c.Allows(Write) || c.Allows(Fetch) {
		t.Fatal("rights wrong for read-only")
	}
	c = SlaveConfig{Executable: true}
	if !c.Allows(Fetch) || c.Allows(Read) {
		t.Fatal("rights wrong for execute-only")
	}
	if c.Allows(Kind(7)) {
		t.Fatal("unknown kind allowed")
	}
}

func TestSlaveConfigValidate(t *testing.T) {
	if err := (SlaveConfig{Name: "z", Size: 0}).Validate(); err == nil {
		t.Fatal("zero size accepted")
	}
	if err := (SlaveConfig{Name: "w", Base: AddrMask, Size: 0x100}).Validate(); err == nil {
		t.Fatal("range beyond address space accepted")
	}
	if err := (SlaveConfig{Name: "n", Size: 4, AddrWait: -1}).Validate(); err == nil {
		t.Fatal("negative wait states accepted")
	}
	if err := (SlaveConfig{Name: "ok", Base: 0, Size: 4}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestMapDecode(t *testing.T) {
	m := MustMap(
		newFake("rom", 0x0000, 0x1000),
		newFake("ram", 0x8000, 0x800),
		newFake("uart", 0xF000, 0x100),
	)
	for _, c := range []struct {
		addr uint64
		want string
		sel  int
	}{{0x10, "rom", 0}, {0x8123, "ram", 1}, {0xF020, "uart", 2}} {
		i, ok := m.Lookup(Read, c.addr, 4)
		if i != c.sel || !ok {
			t.Fatalf("Lookup(%#x) = %d, %v; want %d, true", c.addr, i, ok, c.sel)
		}
		if tg := m.Target(i); tg.Slave.Config().Name != c.want || tg.Config.Name != c.want {
			t.Fatalf("Lookup(%#x) decoded to %q", c.addr, tg.Config.Name)
		}
	}
	if i, ok := m.Lookup(Read, 0x7000, 4); i != -1 || ok {
		t.Fatalf("hole decoded to %d, %v; want -1, false", i, ok)
	}
}

func TestMapRejectsOverlap(t *testing.T) {
	_, err := NewMap(newFake("a", 0x0, 0x100), newFake("b", 0x80, 0x100))
	if err == nil || !strings.Contains(err.Error(), "overlaps") {
		t.Fatalf("overlap not rejected: %v", err)
	}
}

func TestMapSortedByBase(t *testing.T) {
	m := MustMap(newFake("hi", 0x9000, 0x10), newFake("lo", 0x1000, 0x10), newFake("mid", 0x5000, 0x10))
	names := []string{}
	for _, s := range m.Slaves() {
		names = append(names, s.Config().Name)
	}
	want := []string{"lo", "mid", "hi"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("slave order %v, want %v", names, want)
		}
	}
}

func TestMapCheck(t *testing.T) {
	ro := newFake("rom", 0x0, 0x100)
	ro.cfg.Writable = false
	m := MustMap(ro, newFake("ram", 0x200, 0x100))

	if i, ok := m.Lookup(Read, 0x10, 4); i != 0 || !ok {
		t.Fatalf("legal read: %d, %v", i, ok)
	}
	// A rights violation or a range overrun still names its slave: the
	// decoder selects it and the bus answers with an error.
	if i, ok := m.Lookup(Write, 0x10, 4); i != 0 || ok {
		t.Fatalf("write to read-only rom: %d, %v", i, ok)
	}
	if i, ok := m.Lookup(Read, 0x150, 4); i != -1 || ok {
		t.Fatalf("decode miss: %d, %v", i, ok)
	}
	if i, ok := m.Lookup(Read, 0xFC, 16); i != 0 || ok {
		t.Fatalf("burst crossing slave end: %d, %v", i, ok)
	}
}

func TestExtraWaitOf(t *testing.T) {
	f := newFake("ee", 0, 0x100)
	f.extra = 7
	if got := ExtraWaitOf(f, Read, 0); got != 7 {
		t.Fatalf("ExtraWaitOf = %d, want 7", got)
	}
	// The map resolves the extension once, at Add; a slave without it
	// contributes zero.
	plain := struct{ Slave }{newFake("rom", 0x100, 0x100)}
	m := MustMap(f, plain)
	if got := m.Target(0).ExtraWait(Read, 0); got != 7 {
		t.Fatalf("Target(ee).ExtraWait = %d, want 7", got)
	}
	if tg := m.Target(1); tg.Waiter != nil || tg.ExtraWait(Read, 0x100) != 0 {
		t.Fatal("a slave without DynamicWaiter resolved a waiter")
	}
}

func TestBundleSetGet(t *testing.T) {
	var b Bundle
	b.Set(SigA, ^uint64(0))
	if b.Get(SigA) != AddrMask {
		t.Fatalf("SigA not masked: %#x", b.Get(SigA))
	}
	b.Set(SigBE, 0xFF)
	if b.Get(SigBE) != 0xF {
		t.Fatalf("SigBE not masked: %#x", b.Get(SigBE))
	}
	b.SetBool(SigAValid, true)
	if !b.Bool(SigAValid) {
		t.Fatal("SetBool/Bool round trip failed")
	}
	b.SetBool(SigAValid, false)
	if b.Bool(SigAValid) {
		t.Fatal("SetBool(false) failed")
	}
}

func TestSignalTableConsistent(t *testing.T) {
	for i, s := range Signals {
		if s.ID != SignalID(i) {
			t.Fatalf("Signals[%d].ID = %d, table out of order", i, s.ID)
		}
		if s.Bits <= 0 || s.Bits > 64 {
			t.Fatalf("signal %s has invalid width %d", s.Name, s.Bits)
		}
		if s.Name == "" {
			t.Fatalf("signal %d unnamed", i)
		}
	}
	if SignalID(-1).String() != "EB_?" || SignalID(NumSignals).Bits() != 0 {
		t.Fatal("out-of-range SignalID helpers wrong")
	}
}
