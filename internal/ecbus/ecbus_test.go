package ecbus

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// The acceptance flag lives in the padding after Done and Err: a
// transaction stays 96 bytes on 64-bit hosts.
func TestTransactionSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit hosts")
	}
	if got := unsafe.Sizeof(Transaction{}); got != 96 {
		t.Fatalf("Transaction is %d bytes, want 96", got)
	}
}

func TestByteEnables(t *testing.T) {
	cases := []struct {
		addr uint64
		w    Width
		want uint8
		ok   bool
	}{
		{0x100, W8, 0b0001, true},
		{0x101, W8, 0b0010, true},
		{0x102, W8, 0b0100, true},
		{0x103, W8, 0b1000, true},
		{0x100, W16, 0b0011, true},
		{0x102, W16, 0b1100, true},
		{0x101, W16, 0, false},
		{0x103, W16, 0, false},
		{0x100, W32, 0b1111, true},
		{0x101, W32, 0, false},
		{0x102, W32, 0, false},
		{0x100, Width(3), 0, false},
	}
	for _, c := range cases {
		got, ok := ByteEnables(c.addr, c.w)
		if got != c.want || ok != c.ok {
			t.Errorf("ByteEnables(%#x, %v) = (%#b, %v), want (%#b, %v)",
				c.addr, c.w, got, ok, c.want, c.ok)
		}
	}
}

func TestByteEnablesPopcountMatchesWidth(t *testing.T) {
	f := func(addr uint64, sel uint8) bool {
		w := []Width{W8, W16, W32}[int(sel)%3]
		be, ok := ByteEnables(addr, w)
		if !ok {
			return true
		}
		n := 0
		for i := 0; i < 4; i++ {
			if be&(1<<i) != 0 {
				n++
			}
		}
		return n == int(w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKindHelpers(t *testing.T) {
	if !Fetch.IsRead() || !Read.IsRead() || Write.IsRead() {
		t.Fatal("IsRead wrong")
	}
	if CategoryOf(Fetch) != CatInstrRead || CategoryOf(Read) != CatDataRead || CategoryOf(Write) != CatWrite {
		t.Fatal("CategoryOf wrong")
	}
	for _, k := range []Kind{Fetch, Read, Write, Kind(9)} {
		if k.String() == "" {
			t.Fatal("empty Kind string")
		}
	}
	for _, c := range []Category{CatInstrRead, CatDataRead, CatWrite, Category(9)} {
		if c.String() == "" {
			t.Fatal("empty Category string")
		}
	}
}

func TestBusStateDone(t *testing.T) {
	if StateRequest.Done() || StateWait.Done() {
		t.Fatal("non-terminal state reported Done")
	}
	if !StateOK.Done() || !StateError.Done() {
		t.Fatal("terminal state not Done")
	}
	for _, s := range []BusState{StateRequest, StateWait, StateOK, StateError, BusState(7)} {
		if s.String() == "" {
			t.Fatal("empty BusState string")
		}
	}
}

func TestNewSingleValidation(t *testing.T) {
	if _, err := NewSingle(1, Read, 0x1000, W32, 0); err != nil {
		t.Fatalf("aligned W32: %v", err)
	}
	if _, err := NewSingle(1, Read, 0x1001, W32, 0); err == nil {
		t.Fatal("misaligned W32 accepted")
	}
	if _, err := NewSingle(1, Read, 0x1003, W16, 0); err == nil {
		t.Fatal("misaligned W16 accepted")
	}
	if _, err := NewSingle(1, Write, 0x1003, W8, 0xAB); err != nil {
		t.Fatalf("W8 at lane 3: %v", err)
	}
	if _, err := NewSingle(1, Read, 0x1000, Width(7), 0); err == nil {
		t.Fatal("bogus width accepted")
	}
}

func TestNewBurstValidation(t *testing.T) {
	tr, err := NewBurst(2, Read, 0x2000, nil)
	if err != nil {
		t.Fatalf("aligned burst: %v", err)
	}
	if len(tr.Data) != BurstLen || tr.Words() != BurstLen {
		t.Fatalf("burst data length %d, want %d", len(tr.Data), BurstLen)
	}
	if _, err := NewBurst(2, Read, 0x2004, nil); err == nil {
		t.Fatal("unaligned burst accepted")
	}
	if _, err := NewBurst(2, Write, 0x2000, []uint32{1, 2}); err == nil {
		t.Fatal("short burst payload accepted")
	}
}

func TestTransactionAddressMasked(t *testing.T) {
	tr, err := NewSingle(3, Read, 0xFFFF_FFFF_FFFF_FFF0, W32, 0)
	if err != nil {
		t.Fatalf("masked address rejected: %v", err)
	}
	if tr.Addr&^AddrMask != 0 {
		t.Fatalf("address %#x not masked to %d bits", tr.Addr, AddrBits)
	}
}

func TestTransactionCloneIndependent(t *testing.T) {
	tr, _ := NewBurst(4, Write, 0x100, []uint32{1, 2, 3, 4})
	c := tr.Clone()
	c.Data[0] = 99
	if tr.Data[0] != 1 {
		t.Fatal("Clone shares Data")
	}
	if !strings.Contains(tr.String(), "write") {
		t.Fatalf("String() = %q missing kind", tr.String())
	}
}

func TestValidatePayloadSize(t *testing.T) {
	tr := &Transaction{ID: 1, Kind: Read, Addr: 0x100, Width: W32, Data: []uint32{1, 2}}
	if err := tr.Validate(); err == nil {
		t.Fatal("two-word single transaction accepted")
	}
}

func TestResetSingleClearsResultStateAndReusesData(t *testing.T) {
	tr, _ := NewSingle(1, Write, 0x100, W32, 0xDEAD)
	// Simulate a completed run through a bus model.
	tr.Done, tr.Err, tr.Accepted = true, true, true
	tr.IssueCycle, tr.AddrCycle, tr.DataCycle = 5, 6, 9
	data := &tr.Data[0]
	if err := tr.ResetSingle(2, Read, 0x204, W16, 0); err != nil {
		t.Fatal(err)
	}
	if tr.Done || tr.Err || tr.Accepted || tr.IssueCycle != 0 || tr.AddrCycle != 0 || tr.DataCycle != 0 {
		t.Fatalf("result state not cleared: %+v", tr)
	}
	if tr.ID != 2 || tr.Kind != Read || tr.Addr != 0x204 || tr.Width != W16 || tr.Burst {
		t.Fatalf("identity fields wrong: %+v", tr)
	}
	if &tr.Data[0] != data {
		t.Fatal("ResetSingle reallocated the Data slice")
	}
	if err := tr.ResetSingle(3, Read, 0x205, W16, 0); err == nil {
		t.Fatal("misaligned reset accepted")
	}
}

func TestResetBurstResizesPooledData(t *testing.T) {
	tr, _ := NewSingle(1, Write, 0x100, W8, 0xAB)
	tr.Done, tr.Accepted = true, true
	if err := tr.ResetBurst(2, Write, 0x200); err != nil {
		t.Fatal(err)
	}
	if tr.Done || tr.Accepted {
		t.Fatalf("result state not cleared: %+v", tr)
	}
	if !tr.Burst || len(tr.Data) != BurstLen || tr.Width != W32 {
		t.Fatalf("burst shape wrong: %+v", tr)
	}
	// Back to a single: the burst-capacity slice must be reused.
	data := &tr.Data[0]
	if err := tr.ResetSingle(3, Read, 0x104, W32, 0); err != nil {
		t.Fatal(err)
	}
	if len(tr.Data) != 1 || &tr.Data[0] != data {
		t.Fatalf("single reset did not reuse pooled slice (len %d)", len(tr.Data))
	}
	if err := tr.ResetBurst(4, Read, 0x204); err == nil {
		t.Fatal("unaligned burst reset accepted")
	}
}

func TestResetBurstClearsStalePayload(t *testing.T) {
	// A pooled transaction whose previous use was an errored burst read
	// still carries the earlier payload in the beats the error never
	// reached; reuse must not leak it.
	tr, _ := NewBurst(1, Read, 0x100, []uint32{0xAA, 0xBB, 0xCC, 0xDD})
	tr.Done, tr.Err = true, true
	if err := tr.ResetBurst(2, Read, 0x200); err != nil {
		t.Fatal(err)
	}
	for i, v := range tr.Data {
		if v != 0 {
			t.Fatalf("word %d carries stale payload %#x after ResetBurst", i, v)
		}
	}
}

func TestResetForRetry(t *testing.T) {
	// Errored read: corrupted beats must not survive into the retry.
	rd, _ := NewBurst(1, Read, 0x100, []uint32{0xDEAD, 0xBEEF, 0, 0})
	rd.Done, rd.Err, rd.Accepted = true, true, true
	rd.IssueCycle, rd.AddrCycle, rd.DataCycle = 3, 4, 9
	rd.ResetForRetry()
	if rd.Done || rd.Err || rd.Accepted {
		t.Fatalf("result state not cleared: %+v", rd)
	}
	if rd.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", rd.Retries)
	}
	if rd.IssueCycle != 0 || rd.AddrCycle != 0 || rd.DataCycle != 0 {
		t.Fatalf("cycle stamps not cleared: %+v", rd)
	}
	for i, v := range rd.Data {
		if v != 0 {
			t.Fatalf("read word %d kept corrupted beat %#x across retry", i, v)
		}
	}
	// Errored write: the retry must re-send the same payload.
	wr, _ := NewBurst(2, Write, 0x200, []uint32{1, 2, 3, 4})
	wr.Done, wr.Err = true, true
	wr.ResetForRetry()
	for i, v := range wr.Data {
		if v != uint32(i+1) {
			t.Fatalf("write word %d payload lost across retry: %#x", i, v)
		}
	}
	wr.ResetForRetry()
	if wr.Retries != 2 {
		t.Fatalf("Retries = %d, want 2 after second retry", wr.Retries)
	}
	// ResetSingle/ResetBurst start a fresh use: the retry count resets.
	if err := wr.ResetBurst(3, Write, 0x300); err != nil {
		t.Fatal(err)
	}
	if wr.Retries != 0 {
		t.Fatalf("Retries = %d after ResetBurst, want 0", wr.Retries)
	}
}
