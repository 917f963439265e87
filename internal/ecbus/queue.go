package ecbus

// RingCap is the capacity of a Ring: the protocol's bound on accepted
// transactions, MaxOutstanding per category over NumCategories
// categories (12), rounded up to a power of two so indices wrap with a
// mask. No bus queue can hold more than every accepted transaction.
const RingCap = 16

// Ring is the fixed-capacity FIFO behind every request queue of the bus
// models. Its storage is an array inside the owning bus, so pushing and
// popping allocate nothing.
type Ring[T any] struct {
	buf  [RingCap]T
	head int
	n    int
}

// Empty reports whether the ring holds no entry.
func (r *Ring[T]) Empty() bool { return r.n == 0 }

// Front returns the oldest entry; valid until the next Pop.
func (r *Ring[T]) Front() *T { return &r.buf[r.head] }

// Back returns the newest entry.
func (r *Ring[T]) Back() *T { return r.At(r.n - 1) }

// At returns the i-th oldest entry.
func (r *Ring[T]) At(i int) *T { return &r.buf[(r.head+i)&(RingCap-1)] }

// Push appends v as the newest entry.
func (r *Ring[T]) Push(v T) {
	if r.n == RingCap {
		panic("ecbus: request queue overflow (protocol cap exceeded)")
	}
	r.buf[(r.head+r.n)&(RingCap-1)] = v
	r.n++
}

// Pop removes the oldest entry, zeroing its slot so the ring keeps no
// reference to a retired transaction.
func (r *Ring[T]) Pop() {
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (RingCap - 1)
	r.n--
}

// Any reports whether f holds for some queued entry.
func (r *Ring[T]) Any(f func(*T) bool) bool {
	for i := 0; i < r.n; i++ {
		if f(r.At(i)) {
			return true
		}
	}
	return false
}

// Outstanding is a bus model's ledger of accepted, not yet retired
// transactions: the count per category that the protocol caps at
// MaxOutstanding, and how many of them carry IssueCycle 0.
//
// The second count resolves the one ambiguity of the Access protocol. A
// transaction with IssueCycle != 0 is in flight; one with IssueCycle 0
// is usually fresh, but a request accepted before the bus's first
// falling edge is stamped 0 too. Only while such a request is in flight
// must Access search the queues to tell the two apart.
//
// The ledger also keeps the bus's half of the stall contract of a
// refused master: a refusal lasts until the next retire, and the cycle
// after that retire is a wake cycle the bus must execute (see Wake).
type Outstanding struct {
	perCat  [NumCategories]int
	atZero  int
	refused bool   // a request was refused since the last retire
	wake    uint64 // the cycle after the retire that ended a refusal
}

// Full reports whether category c is at the protocol cap.
func (o *Outstanding) Full(c Category) bool { return o.perCat[c] >= MaxOutstanding }

// Accept stamps tr as issued on cycle issue and counts it; it returns
// the number now outstanding in tr's category.
func (o *Outstanding) Accept(tr *Transaction, issue uint64) int {
	tr.IssueCycle = issue
	if issue == 0 {
		o.atZero++
	}
	c := tr.Category()
	o.perCat[c]++
	return o.perCat[c]
}

// Refuse records that Access turned a request away because its
// category is full.
func (o *Outstanding) Refuse() { o.refused = true }

// Retire uncounts tr as the bus completes it, after DataCycle is
// stamped and while IssueCycle still holds the accepted stamp
// (ResetForRetry clears it). A retire that frees capacity while a
// refused request waits makes the next cycle a wake cycle.
func (o *Outstanding) Retire(tr *Transaction) {
	if tr.IssueCycle == 0 {
		o.atZero--
	}
	o.perCat[tr.Category()]--
	if o.refused {
		o.refused = false
		o.wake = tr.DataCycle + 1
	}
}

// Wake reports whether cycle is a wake cycle: a refused master may
// sleep until a transaction completes, so the bus hint demands the cycle
// after the retire and the retry lands when the reference path's would.
func (o *Outstanding) Wake(cycle uint64) bool { return o.wake != 0 && o.wake == cycle }

// Ambiguous reports whether an IssueCycle-0 transaction may be in
// flight, so that IssueCycle 0 alone does not prove a transaction fresh.
func (o *Outstanding) Ambiguous() bool { return o.atZero > 0 }
