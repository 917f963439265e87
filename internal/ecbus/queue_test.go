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

func TestRingAny(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 5; i++ {
		r.Push(i)
	}
	r.Pop()
	if r.Any(func(v *int) bool { return *v == 0 }) {
		t.Fatal("Any saw a popped entry")
	}
	if !r.Any(func(v *int) bool { return *v == 4 }) {
		t.Fatal("Any missed a queued entry")
	}
}

// The cycle-0 count must return to zero once the requests stamped 0
// retire, so Access stops searching its queues.
func TestOutstandingCycle0(t *testing.T) {
	var o Outstanding
	a := &Transaction{Kind: Write}
	b := &Transaction{Kind: Write}
	c := &Transaction{Kind: Read}
	if o.Accept(a, 0) != 1 || o.Accept(b, 0) != 2 || o.Accept(c, 7) != 1 {
		t.Fatal("Accept returned wrong per-category counts")
	}
	if a.IssueCycle != 0 || c.IssueCycle != 7 {
		t.Fatal("Accept did not stamp IssueCycle")
	}
	o.Retire(c)
	if !o.Ambiguous() {
		t.Fatal("cycle-0 requests still in flight, but not ambiguous")
	}
	o.Retire(a)
	o.Retire(b)
	if o.Ambiguous() {
		t.Fatal("still ambiguous after every cycle-0 request retired")
	}
	for i := 0; i < MaxOutstanding; i++ {
		if o.Full(CatWrite) {
			t.Fatalf("write category full at %d", i)
		}
		o.Accept(&Transaction{Kind: Write}, 3)
	}
	if !o.Full(CatWrite) || o.Full(CatDataRead) {
		t.Fatal("Full does not track the per-category cap")
	}
}
