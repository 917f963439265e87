package gatepower

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// sumStride is the number of cycles between CycleSum entries, so a sum
// at any cycle count is one entry plus at most sumStride-1 additions.
const sumStride = 256

// A CycleSum is the process-wide prefix table of one per-cycle energy
// constant j (clock tree or leakage): entry m is the float64 sum of
// sumStride·m additions of j performed in order from zero. Sum(c)
// continues from entry c/sumStride with the remaining additions, so it
// returns exactly the bits a per-cycle accumulator holds after c
// cycles, at a cost independent of c.
//
// Reads are lock-free: they load a published prefix of the entries
// through an atomic pointer, and published entries never change. A read
// past the end extends the table under a mutex, only as far as that
// read needs.
type CycleSum struct {
	j       float64
	mu      sync.Mutex
	entries atomic.Pointer[[]float64]
}

// cycleSums maps math.Float64bits(j) to j's *CycleSum, so every
// configuration with the same constant shares one table.
var cycleSums sync.Map

// CycleSumOf returns the shared table of the per-cycle constant j.
func CycleSumOf(j float64) *CycleSum {
	key := math.Float64bits(j)
	if t, ok := cycleSums.Load(key); ok {
		return t.(*CycleSum)
	}
	t, _ := cycleSums.LoadOrStore(key, &CycleSum{j: j})
	return t.(*CycleSum)
}

// Sum returns the sum of c additions of the table's constant from zero.
func (t *CycleSum) Sum(c uint64) float64 {
	m := c / sumStride
	p := t.entries.Load()
	if p == nil || uint64(len(*p)) <= m {
		p = t.grow(m)
	}
	s := (*p)[m]
	for i := c % sumStride; i > 0; i-- {
		s += t.j
	}
	return s
}

// grow publishes entries through index m. Appending in place is safe:
// readers index only below the length they loaded, and the new entries
// lie beyond it. A reallocation at most doubles the capacity, so the
// backing array stays under twice the entries the largest read needs.
func (t *CycleSum) grow(m uint64) *[]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.entries.Load()
	if p != nil && uint64(len(*p)) > m {
		return p
	}
	es := []float64{0} // entry 0: no additions
	if p != nil {
		es = *p
	}
	es = slices.Grow(es, int(m)+1-len(es))
	s := es[len(es)-1]
	for uint64(len(es)) <= m {
		for i := 0; i < sumStride; i++ {
			s += t.j
		}
		es = append(es, s)
	}
	t.entries.Store(&es)
	return &es
}
