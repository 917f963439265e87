package arb_test

import (
	"math/bits"
	"testing"

	"repro/internal/arb"
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tlm1"
)

func TestParsePolicy(t *testing.T) {
	for _, p := range arb.Policies {
		got, err := arb.ParsePolicy(string(p))
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p, got, err)
		}
	}
	for _, bad := range []string{"", "none", "priority", "RR"} {
		if _, err := arb.ParsePolicy(bad); err == nil {
			t.Fatalf("ParsePolicy(%q) accepted", bad)
		}
	}
}

func TestFixedPriorityPick(t *testing.T) {
	a := arb.New(arb.FixedPriority, 4)
	cases := []struct {
		req  uint32
		want int
	}{
		{0b0000, -1}, {0b0001, 0}, {0b1110, 1}, {0b1100, 2}, {0b1000, 3}, {0b1111, 0},
	}
	for _, c := range cases {
		if got := a.Pick(c.req); got != c.want {
			t.Fatalf("fixed Pick(%04b) = %d, want %d", c.req, got, c.want)
		}
		// Commit never changes fixed-priority decisions.
		a.Commit(a.Pick(c.req))
	}
}

func TestRoundRobinRotation(t *testing.T) {
	a := arb.New(arb.RoundRobin, 3)
	// All requesting: strict rotation 0, 1, 2, 0, ...
	want := []int{0, 1, 2, 0, 1, 2}
	for i, w := range want {
		g := a.Pick(0b111)
		if g != w {
			t.Fatalf("grant %d: got %d, want %d", i, g, w)
		}
		a.Commit(g)
	}
	// After granting 1, a request mask without 2 wraps to 0.
	a = arb.New(arb.RoundRobin, 3)
	a.Commit(a.Pick(0b111)) // grants 0
	a.Commit(a.Pick(0b110)) // grants 1
	if g := a.Pick(0b011); g != 0 {
		t.Fatalf("wrap grant: got %d, want 0", g)
	}
	// Pick without Commit keeps the pointer (a refused grant does not
	// rotate priority away from the stalled winner).
	a = arb.New(arb.RoundRobin, 3)
	if g := a.Pick(0b111); g != 0 {
		t.Fatalf("first pick: got %d", g)
	}
	if g := a.Pick(0b111); g != 0 {
		t.Fatalf("uncommitted pick moved the pointer: got %d", g)
	}
}

// testMap is the standard two-slave layout of the core accuracy tests.
var lay = core.Layout{Fast: 0, Slow: 0x10000}

func testMap() *ecbus.Map {
	return ecbus.MustMap(
		mem.NewRAM("fast", lay.Fast, 0x1000, 0, 0),
		mem.NewRAM("slow", lay.Slow, 0x1000, 1, 2),
	)
}

// runContenders drives three script masters with the given corpora
// through an arbitrated tlm1 bus and returns the mux and the recorded
// per-cycle wire observations.
type wireObs struct {
	req, gnt uint32
}

func runContenders(t *testing.T, policy arb.Policy, corpora [][]core.Item) (*arb.Mux, []wireObs, *checker.GrantMonitor) {
	t.Helper()
	k := sim.New(0)
	mux := arb.NewMux(k, policy, len(corpora))
	bus := tlm1.New(k, testMap())
	mux.Bind(bus)

	mon := checker.NewGrantMonitor(policy, len(corpora))
	var obs []wireObs
	mux.Observe(k, func(cycle uint64, req, gnt uint32) {
		obs = append(obs, wireObs{req, gnt})
		mon.Observe(cycle, req, gnt)
	})

	masters := make([]*core.ScriptMaster, len(corpora))
	for i, items := range corpora {
		masters[i] = core.NewScriptMaster(k, mux.Port(i), items)
	}
	_, done := k.RunUntil(2_000_000, func() bool {
		for _, m := range masters {
			if !m.Done() {
				return false
			}
		}
		return true
	})
	if !done {
		t.Fatal("contention run did not finish")
	}
	for i, m := range masters {
		if m.Errors() != 0 {
			t.Fatalf("master %d: %d unexpected bus errors", i, m.Errors())
		}
		if got := uint64(len(m.Completed())); got != uint64(len(corpora[i])) {
			t.Fatalf("master %d completed %d of %d", i, got, len(corpora[i]))
		}
	}
	return mux, obs, mon
}

// TestArbitrationFairnessProperty is the arbitration fairness property
// suite over the 100-corpus matrix: for every seeded random corpus
// triple, round-robin grant counts stay within the ±1-per-rotation
// bound (no requester is passed over for a full rotation — checker
// rule G3) and fixed priority never grants a lower-priority master
// while a higher-priority one is requesting.
func TestArbitrationFairnessProperty(t *testing.T) {
	for seed := uint64(1); seed <= 100; seed++ {
		corpora := [][]core.Item{
			core.RandomCorpus(seed, 60, lay),
			core.RandomCorpus(seed+1000, 60, lay),
			core.RandomCorpus(seed+2000, 60, lay),
		}

		// Round robin: the grant monitor enforces the rotation bound;
		// additionally every master must finish with its full grant count.
		mux, obs, mon := runContenders(t, arb.RoundRobin, cloneAll(corpora))
		if !mon.Clean() {
			t.Fatalf("seed %d rr: grant violations: %v", seed, mon.Violations()[0])
		}
		last := -1
		for _, o := range obs {
			if o.gnt == 0 {
				continue
			}
			w := bits.TrailingZeros32(o.gnt)
			// The winner must be the first requester after the previous
			// winner in cyclic order — the round-robin invariant itself.
			n := mux.Masters()
			for i := 1; i <= n; i++ {
				p := (last + i) % n
				if p == w {
					break
				}
				if o.req&(1<<p) != 0 {
					t.Fatalf("seed %d: grant to %d skipped requester %d (req=%03b, last=%d)",
						seed, w, p, o.req, last)
				}
			}
			last = w
		}

		// Fixed priority: the winner is always the lowest requesting port.
		_, obs, mon = runContenders(t, arb.FixedPriority, cloneAll(corpora))
		if !mon.Clean() {
			t.Fatalf("seed %d fixed: grant violations: %v", seed, mon.Violations()[0])
		}
		for _, o := range obs {
			if o.gnt == 0 {
				continue
			}
			if want := uint32(1) << uint(bits.TrailingZeros32(o.req)); o.gnt != want {
				t.Fatalf("seed %d: fixed granted %03b with req %03b", seed, o.gnt, o.req)
			}
		}
	}
}

func cloneAll(corpora [][]core.Item) [][]core.Item {
	out := make([][]core.Item, len(corpora))
	for i, items := range corpora {
		out[i] = core.CloneItems(items)
	}
	return out
}

// TestGrantCountsConserved pins the accounting identities: committed
// grants equal completed transaction attempts, and the monitor's
// per-master counts match the mux's.
func TestGrantCountsConserved(t *testing.T) {
	corpora := [][]core.Item{
		core.RandomCorpus(7, 80, lay),
		core.RandomCorpus(8, 40, lay),
		core.RandomCorpus(9, 20, lay),
	}
	mux, _, mon := runContenders(t, arb.RoundRobin, cloneAll(corpora))
	var total uint64
	for i := range corpora {
		if mux.Grants(i) != uint64(len(corpora[i])) {
			t.Fatalf("master %d: %d grants for %d transactions", i, mux.Grants(i), len(corpora[i]))
		}
		if mon.Grants(i) != mux.Grants(i) {
			t.Fatalf("master %d: monitor saw %d grants, mux counted %d", i, mon.Grants(i), mux.Grants(i))
		}
		total += mux.Grants(i)
	}
	if mux.TotalGrants() != total {
		t.Fatalf("TotalGrants %d != sum %d", mux.TotalGrants(), total)
	}
	if !mux.Drained() {
		t.Fatal("mux not drained after all masters finished")
	}
}

// TestMasterEnergyTelescopes pins the per-master arbitration-energy
// attribution: the port-order sum of MasterEnergy equals TotalEnergy
// bit for bit, and energy is conserved as edges × EdgeEnergyJ.
func TestMasterEnergyTelescopes(t *testing.T) {
	corpora := [][]core.Item{
		core.RandomCorpus(11, 70, lay),
		core.RandomCorpus(12, 50, lay),
		core.RandomCorpus(13, 30, lay),
	}
	mux, _, _ := runContenders(t, arb.RoundRobin, cloneAll(corpora))
	var sum float64
	var edges uint64
	for i := 0; i < mux.Masters(); i++ {
		sum += mux.MasterEnergy(i)
		edges += mux.Edges(i)
		if mux.MasterEnergy(i) != float64(mux.Edges(i))*arb.EdgeEnergyJ {
			t.Fatalf("master %d energy not edges × EdgeEnergyJ", i)
		}
	}
	if total := mux.TotalEnergy(); total != sum {
		t.Fatalf("per-master energy does not telescope: sum %x, total %x", sum, total)
	}
	if edges == 0 {
		t.Fatal("no arbitration wire activity recorded")
	}
}
