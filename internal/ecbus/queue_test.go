package ecbus

import "testing"

// RingCap must hold every transaction the protocol lets a bus accept
// and wrap by mask.
func TestRingCapBoundsProtocol(t *testing.T) {
	if RingCap < MaxOutstanding*int(NumCategories) || RingCap&(RingCap-1) != 0 {
		t.Fatalf("RingCap %d: want a power of two >= %d", RingCap, MaxOutstanding*int(NumCategories))
	}
}

func TestRingFIFOAcrossWrap(t *testing.T) {
	var r Ring[*Transaction]
	trs := make([]*Transaction, 3*RingCap)
	for i := range trs {
		trs[i] = &Transaction{ID: uint64(i)}
	}
	next := 0
	for i, tr := range trs {
		r.Push(tr)
		if *r.Back() != tr || r.n != i+1-next {
			t.Fatalf("push %d: back %v len %d", i, *r.Back(), r.n)
		}
		if r.n == RingCap-1 { // drain most, so the head wraps
			for r.n > 2 {
				if got := *r.Front(); got != trs[next] {
					t.Fatalf("pop: got #%d, want #%d", got.ID, next)
				}
				if *r.At(1) != trs[next+1] {
					t.Fatalf("At(1) is not the second oldest")
				}
				r.Pop()
				next++
			}
		}
	}
	for !r.Empty() {
		if *r.Front() != trs[next] {
			t.Fatalf("drain: got #%d, want #%d", (*r.Front()).ID, next)
		}
		r.Pop()
		next++
	}
	if next != len(trs) {
		t.Fatalf("popped %d of %d", next, len(trs))
	}
	for i := range r.buf {
		if r.buf[i] != nil {
			t.Fatalf("slot %d still references a popped transaction", i)
		}
	}
}

func TestRingOverflowPanics(t *testing.T) {
	var r Ring[int]
	for i := 0; i < RingCap; i++ {
		r.Push(i)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("push into a full ring did not panic")
		}
	}()
	r.Push(RingCap)
}
