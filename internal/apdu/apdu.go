// Package apdu implements the smart card's command interface: ISO
// 7816-4 style APDUs (the protocol the paper's card speaks over its
// UART to the terminal) and a wallet card application that serves them
// through the platform's bus — UART special function registers for the
// I/O, EEPROM for persistence — so a complete terminal↔card session can
// be simulated and its energy accounted at any abstraction layer.
package apdu

import (
	"errors"
	"fmt"
)

// Status words (SW1SW2).
const (
	SWSuccess          = 0x9000
	SWWrongLength      = 0x6700
	SWConditionsNotMet = 0x6985
	SWFileNotFound     = 0x6A82
	SWInsNotSupported  = 0x6D00
	SWClaNotSupported  = 0x6E00
)

// Command is a command APDU (cases 1-4 supported: header, optional
// command data, optional expected length).
type Command struct {
	CLA, INS, P1, P2 byte
	Data             []byte // Lc bytes
	Le               int    // expected response data length; 0 = none
}

// Bytes serializes the command (short Lc/Le form).
func (c Command) Bytes() []byte {
	out := []byte{c.CLA, c.INS, c.P1, c.P2}
	if len(c.Data) > 0 {
		out = append(out, byte(len(c.Data)))
		out = append(out, c.Data...)
	}
	if c.Le > 0 {
		out = append(out, byte(c.Le))
	}
	return out
}

// String renders the command header for diagnostics.
func (c Command) String() string {
	return fmt.Sprintf("APDU %02X %02X %02X %02X Lc=%d Le=%d", c.CLA, c.INS, c.P1, c.P2, len(c.Data), c.Le)
}

// errTruncated reports a short APDU.
var errTruncated = errors.New("apdu: truncated command")

// Parse decodes a command APDU. Ambiguity between case 2 (Le only) and
// case 3 (Lc+data) follows ISO: a single trailing byte after the header
// is Le; otherwise the byte is Lc and must be followed by exactly Lc
// data bytes, optionally plus one Le byte.
func Parse(b []byte) (Command, error) {
	if len(b) < 4 {
		return Command{}, errTruncated
	}
	c := Command{CLA: b[0], INS: b[1], P1: b[2], P2: b[3]}
	rest := b[4:]
	switch {
	case len(rest) == 0: // case 1
		return c, nil
	case len(rest) == 1: // case 2
		c.Le = int(rest[0])
		if c.Le == 0 {
			c.Le = 256
		}
		return c, nil
	default: // case 3 or 4
		lc := int(rest[0])
		if len(rest) < 1+lc {
			return Command{}, errTruncated
		}
		c.Data = append([]byte(nil), rest[1:1+lc]...)
		tail := rest[1+lc:]
		switch len(tail) {
		case 0:
			return c, nil
		case 1:
			c.Le = int(tail[0])
			if c.Le == 0 {
				c.Le = 256
			}
			return c, nil
		default:
			return Command{}, fmt.Errorf("apdu: %d trailing bytes", len(tail))
		}
	}
}

// Response is a response APDU: optional data plus the status word.
type Response struct {
	Data []byte
	SW   uint16
}

// Bytes serializes the response.
func (r Response) Bytes() []byte {
	out := append([]byte(nil), r.Data...)
	return append(out, byte(r.SW>>8), byte(r.SW))
}

// Wallet applet instruction set (CLA 0x80).
const (
	ClaWallet  = 0x80
	InsSelect  = 0xA4
	InsBalance = 0xB0
	InsDebit   = 0xD0
	InsCredit  = 0xC0
)

// Auth applet instruction set (same class; SELECT switches applets).
const (
	InsVerify = 0x20 // VERIFY: compare the presented PIN, burn a try on mismatch
	InsTries  = 0xCA // GET DATA: remaining PIN tries (1 data byte)
)

// Auth applet status words.
const (
	SWAuthFailed  = 0x63C0 // wrong PIN; low nibble carries the remaining tries
	SWAuthBlocked = 0x6983 // retry budget exhausted, applet blocked
)

// WalletAID is the wallet applet identifier SELECT expects.
var WalletAID = []byte{0xA0, 0x00, 0x00, 0x07, 0x57}

// AuthAID is the PIN-auth applet identifier.
var AuthAID = []byte{0xA0, 0x00, 0x00, 0x07, 0x42}
