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
	if s := m.Decode(0x10); s == nil || s.Config().Name != "rom" {
		t.Fatal("rom not decoded")
	}
	if s := m.Decode(0x8123); s == nil || s.Config().Name != "ram" {
		t.Fatal("ram not decoded")
	}
	if s := m.Decode(0x7000); s != nil {
		t.Fatal("hole decoded to a slave")
	}
	if m.Index(0xF020) != 2 {
		t.Fatalf("Index(uart) = %d, want 2", m.Index(0xF020))
	}
	if m.Index(0x7000) != -1 {
		t.Fatal("Index of hole != -1")
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

	if _, err := m.Check(Read, 0x10, 4); err != nil {
		t.Fatalf("legal read rejected: %v", err)
	}
	if _, err := m.Check(Write, 0x10, 4); err == nil {
		t.Fatal("write to read-only rom allowed")
	}
	if _, err := m.Check(Read, 0x150, 4); err == nil {
		t.Fatal("decode miss not reported")
	}
	if _, err := m.Check(Read, 0xFC, 16); err == nil {
		t.Fatal("burst crossing slave end allowed")
	}
}

func TestExtraWaitOf(t *testing.T) {
	f := newFake("ee", 0, 0x100)
	f.extra = 7
	if got := ExtraWaitOf(f, Read, 0); got != 7 {
		t.Fatalf("ExtraWaitOf = %d, want 7", got)
	}
	// A slave without the extension contributes zero.
	plain := struct{ Slave }{f}
	_ = plain
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
