package apdu

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/ecbus"
	"repro/internal/journal"
	"repro/internal/platform"
)

// TestCommandFramingBytes pins the exact wire image of each ISO case —
// the T=0 frames the card reassembles byte by byte.
func TestCommandFramingBytes(t *testing.T) {
	cases := []struct {
		name string
		cmd  Command
		want []byte
	}{
		{"case1 header only", Command{CLA: 0x80, INS: 0xA4, P1: 4},
			[]byte{0x80, 0xA4, 0x04, 0x00}},
		{"case2 Le only", Command{CLA: 0x80, INS: 0xB0, Le: 2},
			[]byte{0x80, 0xB0, 0x00, 0x00, 0x02}},
		{"case3 Lc+data", Command{CLA: 0x80, INS: 0xD0, Data: []byte{0x00, 0x64}},
			[]byte{0x80, 0xD0, 0x00, 0x00, 0x02, 0x00, 0x64}},
		{"case4 Lc+data+Le", Command{CLA: 0x80, INS: 0x20, Data: []byte{0x31, 0x32}, Le: 1},
			[]byte{0x80, 0x20, 0x00, 0x00, 0x02, 0x31, 0x32, 0x01}},
		{"select wallet", Command{CLA: ClaWallet, INS: InsSelect, Data: WalletAID},
			[]byte{0x80, 0xA4, 0x00, 0x00, 0x05, 0xA0, 0x00, 0x00, 0x07, 0x57}},
		{"select auth", Command{CLA: ClaWallet, INS: InsSelect, Data: AuthAID},
			[]byte{0x80, 0xA4, 0x00, 0x00, 0x05, 0xA0, 0x00, 0x00, 0x07, 0x42}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.cmd.Bytes()
			if !bytes.Equal(got, tc.want) {
				t.Fatalf("frame % X, want % X", got, tc.want)
			}
			back, err := Parse(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back.Bytes(), tc.want) {
				t.Fatalf("re-serialized % X, want % X", back.Bytes(), tc.want)
			}
		})
	}
}

// TestResponseFramingBytes pins the response wire image: data then
// SW1 SW2, big-endian.
func TestResponseFramingBytes(t *testing.T) {
	cases := []struct {
		name string
		resp Response
		want []byte
	}{
		{"status only", Response{SW: SWSuccess}, []byte{0x90, 0x00}},
		{"balance", Response{Data: []byte{0x03, 0xE8}, SW: SWSuccess}, []byte{0x03, 0xE8, 0x90, 0x00}},
		{"wrong pin 2 left", Response{SW: SWAuthFailed | 2}, []byte{0x63, 0xC2}},
		{"blocked", Response{SW: SWAuthBlocked}, []byte{0x69, 0x83}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.resp.Bytes()
			if !bytes.Equal(got, tc.want) {
				t.Fatalf("frame % X, want % X", got, tc.want)
			}
			back, err := ParseResponse(got)
			if err != nil {
				t.Fatal(err)
			}
			if back.SW != tc.resp.SW || !bytes.Equal(back.Data, tc.resp.Data) {
				t.Fatalf("round trip %+v, want %+v", back, tc.resp)
			}
		})
	}
}

func authCard(t *testing.T) (*Card, *platform.Platform) {
	t.Helper()
	p := platform.New(platform.Config{Layer: platform.Layer1, Energy: true})
	if err := p.EEPROM.LoadWords(0, []uint32{1000}); err != nil {
		t.Fatal(err)
	}
	return NewCard(p.Kernel, p.Bus, platform.UARTBase, platform.EEPROMBase), p
}

// TestCardReadWordAllocFree: the card runs every access on its blocking
// master's pooled transaction, so a steady-state bus read allocates
// nothing.
func TestCardReadWordAllocFree(t *testing.T) {
	c, _ := authCard(t)
	read := func() {
		if v, err := c.ReadWord(platform.EEPROMBase); err != nil || v != 1000 {
			t.Fatalf("ReadWord = %d, %v; want 1000", v, err)
		}
	}
	read() // warm up
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Fatalf("Card.ReadWord allocates %.1f times per call, want 0", allocs)
	}
}

func handle(t *testing.T, c *Card, cmd Command) Response {
	t.Helper()
	r, err := c.Handle(cmd)
	if err != nil {
		t.Fatalf("%v: %v", cmd, err)
	}
	return r
}

func TestAuthAppletVerify(t *testing.T) {
	c, _ := authCard(t)
	sel := Command{CLA: ClaWallet, INS: InsSelect, Data: AuthAID}
	if r := handle(t, c, sel); !r.OK() {
		t.Fatalf("select auth: SW=%04X", r.SW)
	}
	// Factory-fresh counter reads the full budget.
	if r := handle(t, c, Command{CLA: ClaWallet, INS: InsTries, Le: 1}); !r.OK() || r.Data[0] != AuthMaxTries {
		t.Fatalf("fresh tries = %v", r)
	}
	// Two wrong PINs burn two tries.
	wrong := Command{CLA: ClaWallet, INS: InsVerify, Data: []byte{9, 9, 9, 9}}
	if r := handle(t, c, wrong); r.SW != SWAuthFailed|2 {
		t.Fatalf("first failure SW=%04X", r.SW)
	}
	if r := handle(t, c, wrong); r.SW != SWAuthFailed|1 {
		t.Fatalf("second failure SW=%04X", r.SW)
	}
	// The right PIN restores the budget.
	right := Command{CLA: ClaWallet, INS: InsVerify, Data: append([]byte{}, DefaultPIN...)}
	if r := handle(t, c, right); !r.OK() {
		t.Fatalf("verify SW=%04X", r.SW)
	}
	if r := handle(t, c, Command{CLA: ClaWallet, INS: InsTries, Le: 1}); r.Data[0] != AuthMaxTries {
		t.Fatalf("tries after success = %d", r.Data[0])
	}
	// Draining the budget blocks the applet, persistently.
	for i := 0; i < AuthMaxTries; i++ {
		handle(t, c, wrong)
	}
	if r := handle(t, c, right); r.SW != SWAuthBlocked {
		t.Fatalf("blocked applet accepted the PIN: SW=%04X", r.SW)
	}
}

func TestMultiAppletDispatch(t *testing.T) {
	c, _ := authCard(t)
	// Wallet state and auth state live behind one SELECT dispatcher.
	if r := handle(t, c, Command{CLA: ClaWallet, INS: InsSelect, Data: WalletAID}); !r.OK() {
		t.Fatalf("select wallet: %04X", r.SW)
	}
	if r := handle(t, c, Command{CLA: ClaWallet, INS: InsDebit, Data: []byte{0x00, 0x64}}); !r.OK() {
		t.Fatalf("debit: %04X", r.SW)
	}
	// Wallet instructions are rejected while auth is selected …
	if r := handle(t, c, Command{CLA: ClaWallet, INS: InsSelect, Data: AuthAID}); !r.OK() {
		t.Fatalf("select auth: %04X", r.SW)
	}
	if r := handle(t, c, Command{CLA: ClaWallet, INS: InsBalance, Le: 2}); r.SW != SWInsNotSupported {
		t.Fatalf("balance on auth applet: %04X", r.SW)
	}
	// … and auth instructions while the wallet is.
	if r := handle(t, c, Command{CLA: ClaWallet, INS: InsSelect, Data: WalletAID}); !r.OK() {
		t.Fatalf("reselect wallet: %04X", r.SW)
	}
	if r := handle(t, c, Command{CLA: ClaWallet, INS: InsVerify, Data: []byte{1}}); r.SW != SWInsNotSupported {
		t.Fatalf("verify on wallet applet: %04X", r.SW)
	}
	if r := handle(t, c, Command{CLA: ClaWallet, INS: InsBalance, Le: 2}); !r.OK() ||
		uint16(r.Data[0])<<8|uint16(r.Data[1]) != 900 {
		t.Fatalf("wallet state lost across selects: %v", r)
	}
}

// TestJournaledSessionEquivalence: journaling changes the traffic, not
// the protocol — responses are identical, the journal's records and
// markers add EEPROM programming, and the committed map mirrors the
// final persistent state.
func TestJournaledSessionEquivalence(t *testing.T) {
	run := func(strategy string) ([]Response, *platform.Platform, *Card) {
		c, p := authCard(t)
		s, ok := journal.Named(strategy)
		if !ok {
			t.Fatalf("bad strategy %q", strategy)
		}
		c.UseJournal(s)
		resps, err := c.Session(p.UART, walletSession())
		if err != nil {
			t.Fatal(err)
		}
		return resps, p, c
	}
	bare, barePlat, _ := run("none")
	for _, strategy := range []string{"word-eager", "word-lazy", "page-eager", "page-lazy"} {
		resps, p, c := run(strategy)
		if len(resps) != len(bare) {
			t.Fatalf("%s: %d responses, want %d", strategy, len(resps), len(bare))
		}
		for i := range resps {
			if resps[i].SW != bare[i].SW || !bytes.Equal(resps[i].Data, bare[i].Data) {
				t.Fatalf("%s: response %d differs: %v vs %v", strategy, i, resps[i], bare[i])
			}
		}
		if p.EEPROM.Programs() <= barePlat.EEPROM.Programs() {
			t.Fatalf("%s: journaling added no programming (%d vs %d)",
				strategy, p.EEPROM.Programs(), barePlat.EEPROM.Programs())
		}
		// The committed map is the durable truth: the device words match.
		for addr, want := range c.Committed() {
			if got, _ := p.EEPROM.ReadWord(addr, ecbus.W32); got != want {
				t.Fatalf("%s: committed %#x = %#x, device has %#x", strategy, addr, want, got)
			}
		}
		if len(c.Committed()) == 0 {
			t.Fatalf("%s: nothing committed", strategy)
		}
	}
}

// fakeMonitor latches after n completed transactions.
type fakeMonitor struct {
	c    *Card
	n    uint64
	torn bool
}

func (m *fakeMonitor) Check() bool {
	if m.c.Transactions >= m.n {
		m.torn = true
	}
	return m.torn
}

// TestSessionPowerLoss: a latched monitor surfaces as ErrPowerLost
// from the command in flight; the session returns the completed prefix.
func TestSessionPowerLoss(t *testing.T) {
	c, p := authCard(t)
	s, _ := journal.Named("word-eager")
	c.UseJournal(s)
	mon := &fakeMonitor{c: c, n: 200}
	c.Monitor = mon
	resps, err := c.Session(p.UART, walletSession())
	if !errors.Is(err, journal.ErrPowerLost) {
		t.Fatalf("err = %v, want power lost", err)
	}
	if len(resps) >= len(walletSession()) {
		t.Fatalf("session survived the tear: %d responses", len(resps))
	}
	// Power-up replay restores every committed word on a fresh card
	// sharing the device.
	c2 := NewCard(p.Kernel, p.Bus, platform.UARTBase, platform.EEPROMBase)
	c2.UseJournal(s)
	if _, err := c2.PowerUp(p.TotalEnergy, nil); err != nil {
		t.Fatal(err)
	}
	for addr, want := range c.Committed() {
		if got, _ := p.EEPROM.ReadWord(addr, ecbus.W32); got != want {
			t.Fatalf("replay lost %#x: device %#x, committed %#x", addr, got, want)
		}
	}
}
