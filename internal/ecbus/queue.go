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
