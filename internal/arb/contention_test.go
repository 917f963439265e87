package arb_test

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/arb"
	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/fault"
	"repro/internal/gatepower"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/rtlbus"
	"repro/internal/sim"
	"repro/internal/tlm1"
	"repro/internal/tlm2"
)

// The cross-layer contention equivalence suite (the multi-master
// extension of core's layer-equivalence tests). Three scripted masters
// with disjoint address ranges contend for one bus behind identical
// muxes at every abstraction level; the suite pins which properties of
// the arbitrated run survive each abstraction step:
//
//   - Layer 0 ↔ layer 1 are cycle-identical models, so EVERYTHING about
//     the arbitration is strictly equal: the committed winner sequence
//     (winner/loser ordering per grant), per-master retry counts under
//     injected faults, contention-window counts, and the arbitration
//     wire energy to the exact IEEE-754 bit pattern.
//   - Layer 2 trades per-beat timing for phase-level timing (it runs a
//     bounded number of cycles slow), so masters' re-request times — and
//     therefore the per-cycle request masks the arbiter samples — shift.
//     The grant schedule is NOT strictly comparable by construction;
//     the invariants that do survive are conservation ones: every
//     master's grant count equals its transaction attempts, retries and
//     error outcomes match the timed layers (the injector keys on
//     per-word access ordinals, which disjoint address ranges keep
//     layer-invariant), and the run completes no faster than layer 0.
type contentionOutcome struct {
	cycles      uint64
	winners     []int    // committed grants in execution order
	grants      []uint64 // per-master committed grant counts
	retries     []int
	errors      []int
	arbBits     uint64 // IEEE-754 bits of the arbitration wire energy
	contentions uint64
}

// contendedCorpora builds three deterministic scripts with disjoint
// address ranges (each master owns its words), so injected fault
// ordinals depend only on each master's own program order.
func contendedCorpora(t *testing.T) [][]core.Item {
	t.Helper()
	var id uint64 = 1
	next := func() uint64 { id++; return id }

	// Master 0: fast-slave traffic, write-then-read word pairs plus one
	// burst — the CPU-like mix.
	var m0 []core.Item
	for i := 0; i < 10; i++ {
		a := lay.Fast + uint64(i)*8
		m0 = append(m0,
			mustSingleItem(t, next(), ecbus.Write, a, 0xAAAA0000|uint32(i)),
			mustSingleItem(t, next(), ecbus.Read, a, 0),
		)
	}
	m0 = append(m0, mustBurstItem(t, next(), ecbus.Write, lay.Fast+0x100,
		[]uint32{1, 2, 3, 4}))

	// Master 1: slow-slave writes (the fault plan scripts against the
	// first of these addresses).
	var m1 []core.Item
	for i := 0; i < 12; i++ {
		a := lay.Slow + 0x100 + uint64(i)*4
		m1 = append(m1, mustSingleItem(t, next(), ecbus.Write, a, 0xBBBB0000|uint32(i)))
	}

	// Master 2: mixed reads and writes split across both slaves, in its
	// own address windows.
	var m2 []core.Item
	for i := 0; i < 8; i++ {
		fa := lay.Fast + 0x800 + uint64(i)*4
		sa := lay.Slow + 0x800 + uint64(i)*4
		m2 = append(m2,
			mustSingleItem(t, next(), ecbus.Write, sa, 0xCCCC0000|uint32(i)),
			mustSingleItem(t, next(), ecbus.Read, fa, 0),
		)
	}
	return [][]core.Item{m0, m1, m2}
}

func mustSingleItem(t *testing.T, id uint64, kind ecbus.Kind, addr uint64, data uint32) core.Item {
	t.Helper()
	tr, err := ecbus.NewSingle(id, kind, addr, ecbus.W32, data)
	if err != nil {
		t.Fatal(err)
	}
	return core.Item{Tr: tr}
}

func mustBurstItem(t *testing.T, id uint64, kind ecbus.Kind, addr uint64, data []uint32) core.Item {
	t.Helper()
	tr, err := ecbus.NewBurst(id, kind, addr, data)
	if err != nil {
		t.Fatal(err)
	}
	return core.Item{Tr: tr}
}

// contentionPlan scripts faults against master 1's first write address
// (two faulted beats, then clean) and master 2's first slow write
// (one faulted beat) — both recoverable within the retry budget.
func contentionPlan() fault.Plan {
	return fault.Plan{Scripted: []fault.ScriptedFault{
		{Op: fault.OpWrite, Addr: lay.Slow + 0x100, After: 0, Count: 2},
		{Op: fault.OpWrite, Addr: lay.Slow + 0x800, After: 0, Count: 1},
	}}
}

// runContention executes the three-master script at the given layer
// behind a mux and returns the comparable outcome.
func runContention(t *testing.T, layer int, policy arb.Policy, corpora [][]core.Item, plan *fault.Plan) contentionOutcome {
	t.Helper()
	slaves := []ecbus.Slave{
		mem.NewRAM("fast", lay.Fast, 0x1000, 0, 0),
		mem.NewRAM("slow", lay.Slow, 0x1000, 1, 2),
	}
	if plan != nil {
		for i, s := range slaves {
			slaves[i] = fault.Wrap(s, *plan)
		}
	}
	bmap := ecbus.MustMap(slaves...)

	k := sim.New(0)
	mux := arb.NewMux(k, policy, len(corpora))
	var bus core.Initiator
	var arbEnergy func() float64 = mux.TotalEnergy
	switch layer {
	case 0:
		bus = rtlbus.New(k, bmap)
	case 1:
		bus = tlm1.New(k, bmap)
	default:
		bus = tlm2.New(k, bmap)
	}
	mux.Bind(bus)

	var out contentionOutcome
	mux.Observe(k, func(_ uint64, req, gnt uint32) {
		if gnt != 0 {
			out.winners = append(out.winners, bits.TrailingZeros32(gnt))
		}
	})

	masters := make([]*core.ScriptMaster, len(corpora))
	for i, items := range corpora {
		masters[i] = core.NewScriptMaster(k, mux.Port(i), items)
		masters[i].Retry = core.RetryPolicy{MaxRetries: 4, Backoff: 1}
	}
	n, done := k.RunUntil(2_000_000, func() bool {
		for _, m := range masters {
			if !m.Done() {
				return false
			}
		}
		return mux.Drained()
	})
	if !done {
		t.Fatalf("layer-%d contention run did not finish", layer)
	}
	out.cycles = n
	out.contentions = mux.Contentions()
	out.arbBits = math.Float64bits(arbEnergy())
	for i, m := range masters {
		out.grants = append(out.grants, mux.Grants(i))
		out.retries = append(out.retries, m.TotalRetries())
		out.errors = append(out.errors, m.Errors())
	}
	return out
}

// assertStrictEqual pins the full L0↔TL1 contention contract: identical
// winner ordering, grant counts, retries, errors, contention windows
// and bit-identical arbitration wire energy.
func assertStrictEqual(t *testing.T, tag string, a, b contentionOutcome) {
	t.Helper()
	if a.cycles != b.cycles {
		t.Fatalf("%s: %d vs %d cycles", tag, a.cycles, b.cycles)
	}
	if len(a.winners) != len(b.winners) {
		t.Fatalf("%s: %d vs %d grants", tag, len(a.winners), len(b.winners))
	}
	for i := range a.winners {
		if a.winners[i] != b.winners[i] {
			t.Fatalf("%s: grant %d went to %d vs %d — winner ordering diverged",
				tag, i, a.winners[i], b.winners[i])
		}
	}
	for i := range a.grants {
		if a.grants[i] != b.grants[i] || a.retries[i] != b.retries[i] || a.errors[i] != b.errors[i] {
			t.Fatalf("%s master %d: grants/retries/errors %d/%d/%d vs %d/%d/%d",
				tag, i, a.grants[i], a.retries[i], a.errors[i],
				b.grants[i], b.retries[i], b.errors[i])
		}
	}
	if a.contentions != b.contentions {
		t.Fatalf("%s: %d vs %d contention windows", tag, a.contentions, b.contentions)
	}
	if a.arbBits != b.arbBits {
		t.Fatalf("%s: arbitration energy bits %016x vs %016x", tag, a.arbBits, b.arbBits)
	}
}

// assertConserved pins the layer-2 subset of the contract against the
// layer-0 reference: attempt-conservation, identical fault outcomes,
// and conservative timing.
func assertConserved(t *testing.T, tag string, ref, tl2 contentionOutcome, corpora [][]core.Item) {
	t.Helper()
	for i := range corpora {
		attempts := uint64(len(corpora[i]) + tl2.retries[i])
		if tl2.grants[i] != attempts {
			t.Fatalf("%s master %d: %d grants for %d attempts", tag, i, tl2.grants[i], attempts)
		}
		if tl2.retries[i] != ref.retries[i] || tl2.errors[i] != ref.errors[i] {
			t.Fatalf("%s master %d: retries/errors %d/%d, layer 0 had %d/%d",
				tag, i, tl2.retries[i], tl2.errors[i], ref.retries[i], ref.errors[i])
		}
	}
	if tl2.cycles < ref.cycles {
		t.Fatalf("%s: layer 2 ran %d cycles, faster than layer 0's %d", tag, tl2.cycles, ref.cycles)
	}
}

// TestCrossLayerContentionEquivalence is the clean-run equivalence
// table: strict grant-schedule and arbitration-energy-bit equality
// between the cycle-identical layers, conservation at layer 2.
func TestCrossLayerContentionEquivalence(t *testing.T) {
	for _, policy := range arb.Policies {
		corpora := contendedCorpora(t)
		l0 := runContention(t, 0, policy, cloneAll(corpora), nil)
		l1 := runContention(t, 1, policy, cloneAll(corpora), nil)
		l2 := runContention(t, 2, policy, cloneAll(corpora), nil)

		if l0.contentions == 0 {
			t.Fatalf("%s: no contention windows — the corpus does not contend", policy)
		}
		assertStrictEqual(t, string(policy)+" L0↔TL1", l0, l1)
		assertConserved(t, string(policy)+" TL2", l0, l2, corpora)
		for i := range corpora {
			if l0.retries[i] != 0 || l0.errors[i] != 0 {
				t.Fatalf("%s: clean run recorded retries/errors on master %d", policy, i)
			}
		}
	}
}

// TestCrossLayerContentionFaultEquivalence repeats the table with the
// scripted fault plan active: the retry storms the injector provokes
// must replay identically on the cycle-identical layers — same winner
// ordering through the retries, same per-master retry counts, same
// arbitration energy bits — and layer 2 must reach the same outcomes.
func TestCrossLayerContentionFaultEquivalence(t *testing.T) {
	plan := contentionPlan()
	for _, policy := range arb.Policies {
		corpora := contendedCorpora(t)
		l0 := runContention(t, 0, policy, cloneAll(corpora), &plan)
		l1 := runContention(t, 1, policy, cloneAll(corpora), &plan)
		l2 := runContention(t, 2, policy, cloneAll(corpora), &plan)

		assertStrictEqual(t, string(policy)+" faulted L0↔TL1", l0, l1)
		assertConserved(t, string(policy)+" faulted TL2", l0, l2, corpora)
		// The scripted plan injects exactly 2 faulted beats on master 1
		// and 1 on master 2 — all recoverable, none on master 0.
		if l0.retries[0] != 0 || l0.retries[1] != 2 || l0.retries[2] != 1 {
			t.Fatalf("%s: retries %v, want [0 2 1]", policy, l0.retries)
		}
		for i, e := range l0.errors {
			if e != 0 {
				t.Fatalf("%s: master %d abandoned %d transactions", policy, i, e)
			}
		}
	}
}

// TestGoldenContendedEquivalence extends the golden gate to multi-master
// runs: the optimized simulation core (idle-skip, incremental power
// bookkeeping) and the reference path produce bit-identical contended
// results — same cycle counts, same winner ordering, same arbitration
// and bus energy bits — at every layer and under both policies.
func TestGoldenContendedEquivalence(t *testing.T) {
	char := platform.DefaultCharTable()
	run := func(layer int, policy arb.Policy, corpora [][]core.Item) (contentionOutcome, uint64) {
		k := sim.New(0)
		mux := arb.NewMux(k, policy, len(corpora))
		var bus core.Initiator
		var busEnergy func() float64
		switch layer {
		case 0:
			b := rtlbus.New(k, testMap())
			est := gatepower.NewEstimator(gatepower.DefaultConfig())
			k.At(sim.Post, "gatepower", func(uint64) { est.Observe(b.Wires()) })
			bus, busEnergy = b, est.TotalEnergy
		case 1:
			b := tlm1.New(k, testMap()).AttachPower(tlm1.NewPowerModel(char))
			bus, busEnergy = b, b.Power().TotalEnergy
		default:
			b := tlm2.New(k, testMap()).AttachPower(tlm2.NewPowerModel(char))
			bus, busEnergy = b, b.Power().TotalEnergy
		}
		mux.Bind(bus)
		var out contentionOutcome
		mux.Observe(k, func(_ uint64, _, gnt uint32) {
			if gnt != 0 {
				out.winners = append(out.winners, bits.TrailingZeros32(gnt))
			}
		})
		masters := make([]*core.ScriptMaster, len(corpora))
		for i, items := range corpora {
			masters[i] = core.NewScriptMaster(k, mux.Port(i), items)
		}
		n, done := k.RunUntil(2_000_000, func() bool {
			for _, m := range masters {
				if !m.Done() {
					return false
				}
			}
			return mux.Drained()
		})
		if !done {
			t.Fatalf("golden layer-%d contended run did not finish", layer)
		}
		out.cycles = n
		out.contentions = mux.Contentions()
		out.arbBits = math.Float64bits(mux.TotalEnergy())
		for i := range corpora {
			out.grants = append(out.grants, mux.Grants(i))
			out.retries = append(out.retries, masters[i].TotalRetries())
			out.errors = append(out.errors, masters[i].Errors())
		}
		return out, math.Float64bits(busEnergy())
	}

	for _, policy := range arb.Policies {
		for layer := 0; layer <= 2; layer++ {
			corpora := contendedCorpora(t)
			opt, optBus := run(layer, policy, cloneAll(corpora))

			core.SetReference(true)
			ref, refBus := run(layer, policy, cloneAll(corpora))
			core.SetReference(false)

			assertStrictEqual(t, string(policy)+" golden L"+string(rune('0'+layer)), opt, ref)
			if optBus != refBus {
				t.Fatalf("%s L%d: bus energy bits %016x (optimized) vs %016x (reference)",
					policy, layer, optBus, refBus)
			}
		}
	}
}
