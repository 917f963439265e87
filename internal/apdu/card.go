package apdu

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/journal"
	"repro/internal/periph"
	"repro/internal/sim"
)

// PowerMonitor reports whether the card's supply has been cut — the
// tear injector's view into the application. The card polls it after
// every completed bus transaction, the same observation points the
// exploration harness uses, so a session tears at a deterministic
// transaction boundary.
type PowerMonitor interface {
	Check() bool
}

// Persistent data layout, as byte offsets from the EEPROM base (all
// inside the journal's data window).
const (
	offBalance   = 0x00 // wallet balance word
	offTxCount   = 0x04 // wallet transaction counter word
	offAuthTries = 0x10 // auth applet's tagged try counter

	// authTriesTag marks an initialized try counter; a word without the
	// tag (factory-fresh EEPROM) reads as AuthMaxTries remaining.
	authTriesTag = 0xA500

	// AuthMaxTries is the PIN retry limit.
	AuthMaxTries = 3
)

// DefaultPIN is the reference PIN the auth applet verifies against
// (personalized at "manufacture"; the model keeps it in code).
var DefaultPIN = []byte{0x31, 0x32, 0x33, 0x34}

// DefaultJournalRegion places the transaction journal inside the
// card's EEPROM: the first 0x100 bytes are the journaled data window
// (balance, counters), the following 0x300 bytes the journal area.
func DefaultJournalRegion(eepromBase uint64) journal.Region {
	return journal.Region{
		DataBase:    eepromBase,
		JournalBase: eepromBase + 0x100,
		JournalSize: 0x300,
	}
}

// Selected applet.
type applet int

const (
	selNone applet = iota
	selWallet
	selAuth
)

// Card is the card-side application: a wallet applet and a PIN-auth
// applet behind one APDU dispatcher. It performs all its I/O and
// persistence through bus transactions — UART SFRs for the contact
// interface, EEPROM for the balance and counters — so a session's cost
// is fully visible to the platform's energy models. Like the Java Card
// adapters, it is an untimed application model that advances the
// clocked simulation until each transaction completes.
type Card struct {
	*core.BlockingMaster // its Transactions counts the card's bus accesses

	k          *sim.Kernel
	uartBase   uint64
	eepromBase uint64

	sel applet

	// Monitor, when set, is the card-tear power monitor; a latched cut
	// surfaces as journal.ErrPowerLost from the access in flight.
	Monitor PowerMonitor

	strat  journal.Strategy
	region journal.Region
	jw     *journal.Writer
}

// NewCard creates the card application over the given bus. The card
// does not retry: the first bus error of a transaction is final.
func NewCard(k *sim.Kernel, bus core.Initiator, uartBase, eepromBase uint64) *Card {
	return &Card{BlockingMaster: core.NewBlockingMaster(k, bus, core.RetryPolicy{}), k: k,
		uartBase: uartBase, eepromBase: eepromBase, region: DefaultJournalRegion(eepromBase)}
}

// UseJournal routes the card's persistent writes through a transaction
// journal in DefaultJournalRegion. An Empty strategy restores direct
// in-place writes.
func (c *Card) UseJournal(s journal.Strategy) {
	c.strat = s
	if s.Empty() {
		c.jw = nil
		return
	}
	c.jw = journal.NewWriter(s, c.region, c)
}

// Journal exposes the card's journal writer (nil when unjournaled) so
// session runners can attach Obs/OnCommit observers and read Stats.
func (c *Card) Journal() *journal.Writer { return c.jw }

// Committed returns the journaled words durable so far, or nil when
// the card writes in place.
func (c *Card) Committed() map[uint64]uint32 {
	if c.jw == nil {
		return nil
	}
	return c.jw.Committed()
}

// PowerUp replays the journal after a power loss: committed frames are
// re-applied in place, a torn tail is discarded. energy, when non-nil,
// samples the platform's running energy meter for the per-phase
// recovery attribution; obs feeds the persistence checker. Unjournaled
// cards have nothing to replay.
func (c *Card) PowerUp(energy func() float64, obs func(journal.Event)) (journal.Recovery, error) {
	if c.strat.Empty() {
		return journal.Recovery{}, nil
	}
	return journal.Replay(c.strat, c.region, c, energy, obs)
}

// run drives one transaction to completion.
func (c *Card) run(kind ecbus.Kind, addr uint64, w ecbus.Width, data uint32) (uint32, error) {
	tr, err := c.Single(kind, addr, w, data)
	if err != nil {
		return 0, err
	}
	switch c.Run(tr) {
	case ecbus.StateOK:
	case ecbus.StateError:
		return 0, fmt.Errorf("card: bus error at %#x", addr)
	default:
		return 0, errors.New("card: transaction never completed")
	}
	if c.Monitor != nil && c.Monitor.Check() {
		return 0, journal.ErrPowerLost
	}
	return tr.Data[0], nil
}

// ReadWord implements journal.BusRW: the journal's traffic is ordinary
// bus transactions of this card.
func (c *Card) ReadWord(addr uint64) (uint32, error) {
	return c.run(ecbus.Read, addr, ecbus.W32, 0)
}

// WriteWord implements journal.BusRW.
func (c *Card) WriteWord(addr uint64, data uint32) error {
	_, err := c.run(ecbus.Write, addr, ecbus.W32, data)
	return err
}

// uartInit enables the UART.
func (c *Card) uartInit() error {
	_, err := c.run(ecbus.Write, c.uartBase+periph.UartCtrl, ecbus.W32, 1)
	return err
}

// uartWait polls the UART status until status&mask == want, advancing
// simulation time between polls; giveUp is the error after 1,000,000
// polls.
func (c *Card) uartWait(mask, want uint32, giveUp string) error {
	for i := 0; i < 1_000_000; i++ {
		st, err := c.run(ecbus.Read, c.uartBase+periph.UartStatus, ecbus.W32, 0)
		if err != nil || st&mask == want {
			return err
		}
		c.k.Step()
	}
	return errors.New(giveUp)
}

// recvByte blocks (advancing simulation time) until a byte arrives.
func (c *Card) recvByte() (byte, error) {
	if err := c.uartWait(4, 4, "card: no byte received"); err != nil { // rx available
		return 0, err
	}
	v, err := c.run(ecbus.Read, c.uartBase+periph.UartData, ecbus.W32, 0)
	return byte(v), err
}

// sendByte writes one response byte, respecting the TX FIFO.
func (c *Card) sendByte(b byte) error {
	if err := c.uartWait(2, 0, "card: tx fifo never drained"); err != nil { // not full
		return err
	}
	_, err := c.run(ecbus.Write, c.uartBase+periph.UartData, ecbus.W32, uint32(b))
	return err
}

// readPersist reads one persistent word.
func (c *Card) readPersist(off uint64) (uint32, error) {
	return c.run(ecbus.Read, c.eepromBase+off, ecbus.W32, 0)
}

// writePersist updates persistent words as one transaction: journaled
// cards journal it (records, marker, in place), bare cards write in
// place directly — fully exposed to tearing, which is the comparison
// the journaling experiments measure.
func (c *Card) writePersist(entries []journal.Entry) error {
	if c.jw == nil {
		for _, e := range entries {
			if err := c.WriteWord(e.Addr, e.Data); err != nil {
				return err
			}
		}
		return nil
	}
	c.jw.Begin()
	for _, e := range entries {
		if err := c.jw.Write(e.Addr, e.Data); err != nil {
			return err
		}
	}
	return c.jw.Commit()
}

// fail maps an access error to a response: power loss propagates (the
// session is over), everything else is a conditions-not-met status.
func fail(err error) (Response, error) {
	if errors.Is(err, journal.ErrPowerLost) {
		return Response{}, err
	}
	return Response{SW: SWConditionsNotMet}, nil
}

// Handle executes one command APDU against the card state. The error
// is non-nil only for power loss (journal.ErrPowerLost): the supply is
// gone mid-command and no response leaves the card.
func (c *Card) Handle(cmd Command) (Response, error) {
	if cmd.CLA != ClaWallet {
		return Response{SW: SWClaNotSupported}, nil
	}
	if cmd.INS == InsSelect {
		switch {
		case bytes.Equal(cmd.Data, WalletAID):
			c.sel = selWallet
		case bytes.Equal(cmd.Data, AuthAID):
			c.sel = selAuth
		default:
			return Response{SW: SWFileNotFound}, nil
		}
		return Response{SW: SWSuccess}, nil
	}
	switch c.sel {
	case selWallet:
		return c.handleWallet(cmd)
	case selAuth:
		return c.handleAuth(cmd)
	default:
		return Response{SW: SWConditionsNotMet}, nil
	}
}

// handleWallet serves the wallet applet: balance, debit, credit. Every
// balance update also bumps the transaction counter — a two-word
// persistent update, atomic only when journaled.
func (c *Card) handleWallet(cmd Command) (Response, error) {
	switch cmd.INS {
	case InsBalance:
		bal, err := c.readPersist(offBalance)
		if err != nil {
			return fail(err)
		}
		return Response{Data: []byte{byte(bal >> 8), byte(bal)}, SW: SWSuccess}, nil
	case InsDebit, InsCredit:
		if len(cmd.Data) != 2 {
			return Response{SW: SWWrongLength}, nil
		}
		amount := uint32(cmd.Data[0])<<8 | uint32(cmd.Data[1])
		bal, err := c.readPersist(offBalance)
		if err != nil {
			return fail(err)
		}
		if cmd.INS == InsDebit {
			if bal < amount {
				return Response{SW: SWConditionsNotMet}, nil
			}
			bal -= amount
		} else {
			bal += amount
		}
		count, err := c.readPersist(offTxCount)
		if err != nil {
			return fail(err)
		}
		err = c.writePersist([]journal.Entry{
			{Addr: c.eepromBase + offBalance, Data: bal},
			{Addr: c.eepromBase + offTxCount, Data: count + 1},
		})
		if err != nil {
			return fail(err)
		}
		return Response{SW: SWSuccess}, nil
	default:
		return Response{SW: SWInsNotSupported}, nil
	}
}

// tries decodes the persistent try counter; an untagged word is a
// factory-fresh counter with the full retry budget.
func (c *Card) tries() (uint32, error) {
	w, err := c.readPersist(offAuthTries)
	if err != nil {
		return 0, err
	}
	if w>>8 != authTriesTag>>8 {
		return AuthMaxTries, nil
	}
	return w & 0xFF, nil
}

// setTries persists the try counter (tagged, single-word transaction).
func (c *Card) setTries(n uint32) error {
	return c.writePersist([]journal.Entry{
		{Addr: c.eepromBase + offAuthTries, Data: authTriesTag | (n & 0xFF)},
	})
}

// handleAuth serves the PIN applet: VERIFY burns a try on a wrong PIN
// (persisted before the comparison result leaves the card, so tearing
// the response cannot refund the try) and restores the budget on
// success; a drained budget blocks the applet.
func (c *Card) handleAuth(cmd Command) (Response, error) {
	switch cmd.INS {
	case InsVerify:
		n, err := c.tries()
		if err != nil {
			return fail(err)
		}
		if n == 0 {
			return Response{SW: SWAuthBlocked}, nil
		}
		if bytes.Equal(cmd.Data, DefaultPIN) {
			if err := c.setTries(AuthMaxTries); err != nil {
				return fail(err)
			}
			return Response{SW: SWSuccess}, nil
		}
		n--
		if err := c.setTries(n); err != nil {
			return fail(err)
		}
		if n == 0 {
			return Response{SW: SWAuthBlocked}, nil
		}
		return Response{SW: SWAuthFailed | uint16(n&0xF)}, nil
	case InsTries:
		n, err := c.tries()
		if err != nil {
			return fail(err)
		}
		return Response{Data: []byte{byte(n)}, SW: SWSuccess}, nil
	default:
		return Response{SW: SWInsNotSupported}, nil
	}
}

// injector delivers terminal bytes into the card's UART; satisfied by
// *periph.UART.
type injector interface {
	InjectRx(p []byte)
}

// Session runs a sequence of terminal commands over the UART against
// the card and returns the responses. The terminal injects each command
// into the UART receiver; the card reads it byte by byte over the bus
// (T=0 style: 4-byte header, then Lc and data as announced), executes
// it, and writes the response back through the transmitter. A power
// loss (card tear) ends the session early: the responses completed so
// far return alongside journal.ErrPowerLost.
func (c *Card) Session(uart injector, cmds []Command) ([]Response, error) {
	if err := c.uartInit(); err != nil {
		return nil, err
	}
	var out []Response
	for _, cmd := range cmds {
		uart.InjectRx(cmd.Bytes())

		// Read the header.
		var hdr [4]byte
		for i := range hdr {
			b, err := c.recvByte()
			if err != nil {
				return out, err
			}
			hdr[i] = b
		}
		raw := hdr[:]
		// Read body as announced (mirrors Parse's case handling; the
		// terminal model sends well-formed frames).
		if len(cmd.Data) > 0 || cmd.Le > 0 {
			rest := len(cmd.Bytes()) - 4
			for i := 0; i < rest; i++ {
				b, err := c.recvByte()
				if err != nil {
					return out, err
				}
				raw = append(raw, b)
			}
		}
		parsed, err := Parse(raw)
		if err != nil {
			return out, fmt.Errorf("card: reassembled frame: %w", err)
		}
		resp, err := c.Handle(parsed)
		if err != nil {
			return out, err
		}
		for _, b := range resp.Bytes() {
			if err := c.sendByte(b); err != nil {
				return out, err
			}
		}
		out = append(out, resp)
	}
	return out, nil
}
