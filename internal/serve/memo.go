package serve

import "sync"

// memo is a bounded, concurrency-safe memo table for values that are
// pure functions of their key within one process — the content-key
// components that would otherwise regenerate a whole corpus on every
// request. Once full it forgets the oldest entry first (FIFO), so
// request diversity cannot grow it past its fixed size.
type memo[K comparable, V any] struct {
	mu    sync.Mutex
	vals  map[K]V
	order []K // insertion order; circular once len == cap
	next  int // oldest slot of order once full
}

func newMemo[K comparable, V any](size int) *memo[K, V] {
	return &memo[K, V]{vals: make(map[K]V, size), order: make([]K, 0, size)}
}

// get returns the value memoized under k, calling compute on a miss.
// compute runs outside the lock, so distinct keys fill concurrently; a
// racing duplicate computes the same value, and the first one stored
// stays.
func (m *memo[K, V]) get(k K, compute func() V) V {
	m.mu.Lock()
	v, ok := m.vals[k]
	m.mu.Unlock()
	if ok {
		return v
	}
	v = compute()
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.vals[k]; ok {
		return v
	}
	if len(m.order) < cap(m.order) {
		m.order = append(m.order, k)
	} else {
		delete(m.vals, m.order[m.next])
		m.order[m.next] = k
		m.next = (m.next + 1) % len(m.order)
	}
	m.vals[k] = v
	return v
}

// len reports the number of memoized entries.
func (m *memo[K, V]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.vals)
}
