// Package ecbus defines the vocabulary of the EC interface — the
// processor/peripheral interface of the MIPS 4K smart-card core family —
// shared by every abstraction level in this repository (layer 0 signal
// model, transaction-level layers 1 and 2).
//
// Protocol subset modelled (from the paper's description of the EC
// interface specification):
//
//   - 36-bit address bus, 32-bit data buses.
//   - All signals unidirectional; separate read and write data buses,
//     each with its own bus-error indication.
//   - Separated address and data phases allow pipelining.
//   - The core limits outstanding transactions to four burst instruction
//     reads, four burst data reads and four burst writes.
//   - Address and data phases can complete in the cycle they are
//     initiated; wait states are inserted per the slave's configuration.
//   - The interface natively supports one master and one slave; a bus
//     controller (address decoder + control logic) multiplexes slaves.
//   - 8-, 16- and 32-bit accesses follow the EC merge patterns (byte
//     enables derived from the low address bits); bursts are four
//     32-bit words, sequential, 16-byte aligned.
package ecbus

import "fmt"

// Architectural constants of the modelled EC interface.
const (
	AddrBits       = 36 // address bus width
	DataBits       = 32 // read and write data bus width
	BurstLen       = 4  // words per burst transaction
	MaxOutstanding = 4  // per category: burst I-read, burst D-read, burst write
)

// AddrMask masks a value to the architectural address width.
const AddrMask = (uint64(1) << AddrBits) - 1

// Kind identifies the direction/purpose of a transaction.
type Kind int

// Transaction kinds. Fetch is an instruction read issued on the master's
// dedicated instruction interface; Read and Write are data accesses.
const (
	Fetch Kind = iota
	Read
	Write
)

// String returns the kind mnemonic.
func (k Kind) String() string {
	switch k {
	case Fetch:
		return "fetch"
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// IsRead reports whether the kind moves data from slave to master.
func (k Kind) IsRead() bool { return k == Fetch || k == Read }

// Category is the outstanding-transaction accounting class of the EC
// interface: the core allows MaxOutstanding of each.
type Category int

// Outstanding-transaction categories.
const (
	CatInstrRead Category = iota
	CatDataRead
	CatWrite
	NumCategories
)

// String returns the category name.
func (c Category) String() string {
	switch c {
	case CatInstrRead:
		return "instr-read"
	case CatDataRead:
		return "data-read"
	case CatWrite:
		return "write"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// CategoryOf returns the accounting category for a transaction kind.
func CategoryOf(k Kind) Category {
	switch k {
	case Fetch:
		return CatInstrRead
	case Read:
		return CatDataRead
	default:
		return CatWrite
	}
}

// Width is the access width of a non-burst transaction.
type Width int

// Access widths corresponding to the EC merge patterns.
const (
	W8  Width = 1
	W16 Width = 2
	W32 Width = 4
)

// Bits returns the number of data bits moved by the width.
func (w Width) Bits() int { return int(w) * 8 }

// Valid reports whether w is one of the defined widths.
func (w Width) Valid() bool { return w == W8 || w == W16 || w == W32 }

// String returns the width in bits as text.
func (w Width) String() string { return fmt.Sprintf("%d-bit", w.Bits()) }

// ByteEnables returns the EC merge-pattern byte-enable mask (bit i set =
// byte lane i active) for an access of width w at address addr, and
// whether the combination is legal (naturally aligned).
func ByteEnables(addr uint64, w Width) (uint8, bool) {
	lane := addr & 3
	switch w {
	case W8:
		return uint8(1) << lane, true
	case W16:
		if lane&1 != 0 {
			return 0, false
		}
		return uint8(0b11) << lane, true
	case W32:
		if lane != 0 {
			return 0, false
		}
		return 0b1111, true
	default:
		return 0, false
	}
}

// BusState is the return state of the non-blocking layer-1 interfaces
// ("request, wait, ok, or error" in the paper).
type BusState int

// Layer-1 interface states. StateRequest means the request has been
// accepted into the bus; StateWait means it is in progress; StateOK means
// it finished; StateError indicates a bus error.
const (
	StateRequest BusState = iota
	StateWait
	StateOK
	StateError
)

// String returns the state name.
func (s BusState) String() string {
	switch s {
	case StateRequest:
		return "request"
	case StateWait:
		return "wait"
	case StateOK:
		return "ok"
	case StateError:
		return "error"
	default:
		return fmt.Sprintf("BusState(%d)", int(s))
	}
}

// Done reports whether the state is terminal (OK or Error).
func (s BusState) Done() bool { return s == StateOK || s == StateError }

// Transaction is one EC bus transaction at any abstraction level. For a
// burst, Data holds BurstLen words; otherwise exactly one word carrying
// the active byte lanes.
//
// The result fields are filled in by the bus models: the acceptance
// flag, the issue stamp and the outcome by each model's ledger
// (core.Ledger), the address stamp by its address phase. Cycle numbers
// refer to the kernel cycle during which the corresponding event
// completed.
type Transaction struct {
	ID    uint64
	Kind  Kind
	Addr  uint64 // byte address, masked to AddrBits
	Width Width  // ignored for bursts (always W32)
	Burst bool
	Data  []uint32 // write payload in, read result out

	// Result fields.
	Done       bool
	Err        bool
	Accepted   bool   // a bus took the current attempt; cleared by the Reset methods
	Retries    int32  // completed attempts that ended in a bus error and were re-issued; int32 to fit the padding after the flags
	IssueCycle uint64 // cycle the master first presented the request
	AddrCycle  uint64 // cycle the address phase completed
	DataCycle  uint64 // cycle the final data phase completed
}

// Outcome returns the outcome stamped on a done transaction: StateOK,
// or StateError when it finished with a bus error.
func (t *Transaction) Outcome() BusState {
	if t.Err {
		return StateError
	}
	return StateOK
}

// Words returns the number of data words the transaction moves.
func (t *Transaction) Words() int {
	if t.Burst {
		return BurstLen
	}
	return 1
}

// Category returns the outstanding-transaction category.
func (t *Transaction) Category() Category { return CategoryOf(t.Kind) }

// Validate checks structural legality: alignment for the width, burst
// alignment and payload size. It does not check the address map.
func (t *Transaction) Validate() error {
	if t.Addr != t.Addr&AddrMask {
		return fmt.Errorf("ecbus: address %#x exceeds %d bits", t.Addr, AddrBits)
	}
	if t.Burst {
		if t.Addr%(BurstLen*4) != 0 {
			return fmt.Errorf("ecbus: burst address %#x not %d-byte aligned", t.Addr, BurstLen*4)
		}
		if len(t.Data) != BurstLen {
			return fmt.Errorf("ecbus: burst payload has %d words, want %d", len(t.Data), BurstLen)
		}
		return nil
	}
	if !t.Width.Valid() {
		return fmt.Errorf("ecbus: invalid width %d", int(t.Width))
	}
	if _, ok := ByteEnables(t.Addr, t.Width); !ok {
		return fmt.Errorf("ecbus: %v access at %#x misaligned", t.Width, t.Addr)
	}
	if len(t.Data) != 1 {
		return fmt.Errorf("ecbus: single transaction payload has %d words, want 1", len(t.Data))
	}
	return nil
}

// Clone returns a deep copy of the transaction (fresh Data slice).
func (t *Transaction) Clone() *Transaction {
	c := *t
	c.Data = append([]uint32(nil), t.Data...)
	return &c
}

// String renders a compact human-readable form for traces and tests.
func (t *Transaction) String() string {
	b := ""
	if t.Burst {
		b = " burst"
	}
	return fmt.Sprintf("#%d %s%s @%#09x %v", t.ID, t.Kind, b, t.Addr, t.Width)
}

// NewSingle builds a validated single-word transaction. Write data is the
// low Width bytes of data placed on the correct byte lanes.
func NewSingle(id uint64, kind Kind, addr uint64, w Width, data uint32) (*Transaction, error) {
	t := &Transaction{}
	if err := t.ResetSingle(id, kind, addr, w, data); err != nil {
		return nil, err
	}
	return t, nil
}

// NewBurst builds a validated burst transaction. For writes, data must
// hold BurstLen words; for reads it may be nil and is allocated.
func NewBurst(id uint64, kind Kind, addr uint64, data []uint32) (*Transaction, error) {
	if data == nil {
		data = make([]uint32, BurstLen)
	}
	t := &Transaction{ID: id, Kind: kind, Addr: addr & AddrMask, Width: W32, Burst: true, Data: data}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// ResetSingle reinitializes t in place as a single-word transaction,
// clearing the result fields and reusing the Data slice. It is the
// allocation-free variant of NewSingle for blocking masters that pool
// one transaction object across calls. A transaction may only be reset
// once its previous use has completed (Done, or never issued): the bus
// models drop their reference to a transaction when it finishes, so a
// completed object is exclusively the master's again.
func (t *Transaction) ResetSingle(id uint64, kind Kind, addr uint64, w Width, data uint32) error {
	if cap(t.Data) < 1 {
		t.Data = make([]uint32, 1)
	}
	t.Data = t.Data[:1]
	t.Data[0] = data
	t.ID, t.Kind, t.Addr, t.Width, t.Burst = id, kind, addr&AddrMask, w, false
	t.Done, t.Err, t.Accepted, t.Retries = false, false, false, 0
	t.IssueCycle, t.AddrCycle, t.DataCycle = 0, 0, 0
	return t.Validate()
}

// ResetBurst reinitializes t in place as a burst transaction under the
// same pooling contract as ResetSingle. The Data slice is resized to
// BurstLen (reusing capacity) and zeroed — a pooled object whose previous
// use was a read that errored mid-burst still carries the earlier
// payload in the beats the error never reached, and that payload must
// not leak into the next use. For writes the caller fills the slice
// before issuing the transaction.
func (t *Transaction) ResetBurst(id uint64, kind Kind, addr uint64) error {
	if cap(t.Data) < BurstLen {
		t.Data = make([]uint32, BurstLen)
	}
	t.Data = t.Data[:BurstLen]
	for i := range t.Data {
		t.Data[i] = 0
	}
	t.ID, t.Kind, t.Addr, t.Width, t.Burst = id, kind, addr&AddrMask, W32, true
	t.Done, t.Err, t.Accepted, t.Retries = false, false, false, 0
	t.IssueCycle, t.AddrCycle, t.DataCycle = 0, 0, 0
	return t.Validate()
}

// ResetForRetry clears the result fields of a completed transaction so a
// master can re-issue it after a bus error, incrementing the retry
// counter. Read payloads are zeroed: an errored read may have deposited
// corrupted beats, and a retry must not expose them if the next attempt
// errors earlier than this one did. Write payloads are preserved — the
// retry re-sends the same data. The pooling contract of ResetSingle
// applies: only a Done transaction may be reset.
func (t *Transaction) ResetForRetry() {
	if t.Kind.IsRead() {
		for i := range t.Data {
			t.Data[i] = 0
		}
	}
	t.Retries++
	t.Done, t.Err, t.Accepted = false, false, false
	t.IssueCycle, t.AddrCycle, t.DataCycle = 0, 0, 0
}
