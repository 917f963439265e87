package gatepower

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ecbus"
)

// loopSums returns, for each cycle count in cs, the sum of that many
// additions of j from zero — the per-cycle accumulator the tables
// replace. One running loop serves every count.
func loopSums(j float64, cs []uint64) map[uint64]float64 {
	sorted := slices.Clone(cs)
	slices.Sort(sorted)
	want := make(map[uint64]float64, len(cs))
	var s float64
	var n uint64
	for _, c := range sorted {
		for ; n < c; n++ {
			s += j
		}
		want[c] = s
	}
	return want
}

func TestCycleSumMatchesLoop(t *testing.T) {
	def := DefaultConfig()
	other := DefaultConfig()
	other.ClockCapFF, other.LeakagePerCycleJ = 1.7, 0.37e-15
	rng := rand.New(rand.NewSource(1))
	cs := []uint64{0, 1, 255, 256, 257, 511, 512, 1_000_000}
	for i := 0; i < 200; i++ {
		cs = append(cs, uint64(rng.Int63n(1_000_001)))
	}
	for _, j := range []float64{
		def.ClockEnergyPerCycleJ(), def.LeakagePerCycleJ,
		other.ClockEnergyPerCycleJ(), other.LeakagePerCycleJ,
	} {
		want := loopSums(j, cs)
		tab := CycleSumOf(j)
		for _, c := range cs {
			if got := tab.Sum(c); math.Float64bits(got) != math.Float64bits(want[c]) {
				t.Fatalf("j=%g: Sum(%d) = %x, loop %x", j, c, math.Float64bits(got), math.Float64bits(want[c]))
			}
		}
	}
}

// TestEstimatorReadPattern drives an optimized and a reference estimator
// through one stream of dirty cycles and idle chunks, reading both at
// gaps on either side of sumStride: gaps up to it take the read cursor,
// longer ones the table.
func TestEstimatorReadPattern(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), func() Config {
		c := DefaultConfig()
		c.ClockCapFF, c.LeakagePerCycleJ = 1.7, 0.37e-15
		return c
	}()} {
		SetReferencePath(true)
		ref := NewEstimator(cfg)
		SetReferencePath(false)
		opt := NewEstimator(cfg)
		rng := rand.New(rand.NewSource(2))
		var b ecbus.Bundle
		observe := func() {
			ref.Observe(&b)
			opt.Observe(&b)
		}
		idle := func(n uint64) {
			ref.ObserveIdle(n)
			opt.ObserveIdle(n)
		}
		gaps := []uint64{1, 255, 256, 257, 511, 70_000}
		for round := 0; round < 4; round++ {
			for _, g := range gaps {
				// One dirty cycle, then the rest of the gap as two idle
				// chunks around a clean observed cycle.
				b.Set(ecbus.SigA, rng.Uint64())
				b.Set(ecbus.SigWData, rng.Uint64())
				b.SetBool(ecbus.SigAValid, rng.Intn(2) == 0)
				observe()
				if rest := g - 1; rest > 0 {
					idle(rest / 2)
					observe()
					idle(rest - rest/2 - 1)
				}
				rb, ob := ref.Breakdown(), opt.Breakdown()
				if rb.Cycles != ob.Cycles ||
					math.Float64bits(rb.ClockJ) != math.Float64bits(ob.ClockJ) ||
					math.Float64bits(rb.LeakageJ) != math.Float64bits(ob.LeakageJ) ||
					math.Float64bits(rb.Total()) != math.Float64bits(ob.Total()) ||
					math.Float64bits(ref.TotalEnergy()) != math.Float64bits(opt.TotalEnergy()) {
					t.Fatalf("round %d gap %d: reference %+v\noptimized %+v", round, g, rb, ob)
				}
			}
		}
	}
}

// TestCycleSumConcurrentGrowth has goroutines read one fresh table at
// distinct cycle counts, so they race to grow it, and checks every read
// against the loop.
func TestCycleSumConcurrentGrowth(t *testing.T) {
	const j = 0.123e-15 // no other test or config uses it: the table starts empty
	const workers = 16
	var cs []uint64
	for w := uint64(0); w < workers; w++ {
		for i := uint64(0); i < 8; i++ {
			cs = append(cs, (i*workers+w+1)*7_919)
		}
	}
	want := loopSums(j, cs)
	tab := CycleSumOf(j)
	var wg sync.WaitGroup
	var bad atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				c := cs[w*8+i]
				if got := tab.Sum(c); math.Float64bits(got) != math.Float64bits(want[c]) {
					bad.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := bad.Load(); n > 0 {
		t.Fatalf("%d concurrent reads differ from the loop", n)
	}
	if CycleSumOf(j) != tab {
		t.Fatal("a second lookup returned a different table")
	}
}

// TestCycleSumMemoryBound reads the default tables at the campaign
// paths' RunUntil cap and bounds what they keep.
func TestCycleSumMemoryBound(t *testing.T) {
	const c = 10_000_000
	bound := (c+sumStride-1)/sumStride + 1
	cfg := DefaultConfig()
	for _, j := range []float64{cfg.ClockEnergyPerCycleJ(), cfg.LeakagePerCycleJ} {
		tab := CycleSumOf(j)
		tab.Sum(c)
		es := *tab.entries.Load()
		if len(es) > bound || cap(es) > 2*bound {
			t.Fatalf("j=%g: %d entries (cap %d) after a read at %d; want at most %d (cap %d)",
				j, len(es), cap(es), c, bound, 2*bound)
		}
	}
}
