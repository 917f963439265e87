package core_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/fault"
	"repro/internal/gatepower"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/rtlbus"
	"repro/internal/sim"
	"repro/internal/tlm1"
	"repro/internal/tlm2"
)

// Cross-layer metric invariants over randomized transaction corpora:
// whatever the corpus, the plan and the layer, the registry's view must
// reconcile exactly with the simulation's own books — the meter total
// bit for bit, the bus statistics counter for counter, the master's
// retry ledger, and the protocol's outstanding limits.

// meteredCapture is one randomized run plus every independent source of
// truth the invariants are checked against.
type meteredCapture struct {
	master *core.ScriptMaster
	snap   metrics.Snapshot

	meterBits uint64 // IEEE-754 bits of the energy meter's final total

	bus       core.TxCounts // the bus ledger's counters
	wordCalls uint64        // slave word calls: one per data beat at layers 0 and 1
	hasBeats  bool
}

// wordCounter counts the word calls a bus makes on a slave, forwarding
// the slave's dynamic wait and access energy so timing and energy are
// those of the unwrapped map.
type wordCounter struct {
	ecbus.Slave
	n *uint64
}

func (w wordCounter) ReadWord(addr uint64, wd ecbus.Width) (uint32, bool) {
	*w.n++
	return w.Slave.ReadWord(addr, wd)
}

func (w wordCounter) WriteWord(addr uint64, data uint32, wd ecbus.Width) bool {
	*w.n++
	return w.Slave.WriteWord(addr, data, wd)
}

func (w wordCounter) ExtraWait(k ecbus.Kind, addr uint64) int {
	return ecbus.ExtraWaitOf(w.Slave, k, addr)
}

func (w wordCounter) AccessEnergy(k ecbus.Kind) float64 {
	if r, ok := w.Slave.(ecbus.EnergyReporter); ok {
		return r.AccessEnergy(k)
	}
	return 0
}

// meteredRun drives items through a metered bus of the given layer.
func meteredRun(t *testing.T, layer int, items []core.Item, char gatepower.CharTable,
	plan fault.Plan, retry core.RetryPolicy) meteredCapture {
	t.Helper()
	reg := metrics.New(fmt.Sprintf("L%d", layer))

	var cap meteredCapture
	k := sim.New(0)
	k.SetRunObserver(reg)
	mp := ecbus.MustMap(
		wordCounter{fault.Wrap(mem.NewRAM("fast", lay.Fast, 0x1000, 0, 0), plan).AttachMetrics(reg), &cap.wordCalls},
		wordCounter{fault.Wrap(mem.NewRAM("slow", lay.Slow, 0x1000, 1, 2), plan).AttachMetrics(reg), &cap.wordCalls},
	)

	var bus contractBus
	var total func() float64
	switch layer {
	case 0:
		b := rtlbus.New(k, mp)
		est := gatepower.NewEstimator(gatepower.DefaultConfig())
		k.AtObserver(sim.Post, "gp", func(uint64) { est.Observe(b.Wires()) }, est.ObserveIdle)
		b.AttachMetrics(k, reg, est.TotalEnergy)
		bus, total, cap.hasBeats = b, est.TotalEnergy, true
	case 1:
		b := tlm1.New(k, mp).AttachPower(tlm1.NewPowerModel(char)).AttachMetrics(reg)
		bus, total, cap.hasBeats = b, b.Power().TotalEnergy, true
	default:
		b := tlm2.New(k, mp).AttachPower(tlm2.NewPowerModel(char)).AttachMetrics(reg)
		bus, total = b, b.Power().TotalEnergy
	}

	m := core.NewScriptMaster(k, bus, items)
	m.Retry = retry
	m.Metrics = reg
	k.RunUntil(1_000_000, m.Done)
	if !m.Done() {
		t.Fatal("metered run did not complete")
	}
	reg.Finalize(total())
	cap.master = m
	cap.snap = reg.Snapshot()
	cap.meterBits = math.Float64bits(total())
	cap.bus = bus.Counts()
	return cap
}

// ulpDiff returns the distance in representable float64 steps between
// two non-negative finite values.
func ulpDiff(a, b float64) uint64 {
	if a < 0 || b < 0 || math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return math.MaxUint64
	}
	ba, bb := math.Float64bits(a), math.Float64bits(b)
	if ba > bb {
		return ba - bb
	}
	return bb - ba
}

// maxEnergyUlps bounds the drift between the telescoped per-bucket sums
// and the meter total. Each bucket is Kahan-compensated, so the final
// cross-bucket addition is the only uncompensated step.
const maxEnergyUlps = 4

func checkInvariants(t *testing.T, tag string, c meteredCapture, items []core.Item, clean bool) {
	t.Helper()
	s := c.snap

	// Energy: the cursor must carry the meter total verbatim, and the
	// phase attribution must telescope back to it within ulps.
	if math.Float64bits(s.TotalEnergyJ) != c.meterBits {
		t.Errorf("%s: snapshot total %x != meter total %x", tag, math.Float64bits(s.TotalEnergyJ), c.meterBits)
	}
	var phaseSum float64
	for _, e := range s.EnergyJ {
		phaseSum += e
	}
	if d := ulpDiff(phaseSum, s.TotalEnergyJ); d > maxEnergyUlps {
		t.Errorf("%s: per-phase energy sum off by %d ulps (sum %g, total %g)",
			tag, d, phaseSum, s.TotalEnergyJ)
	}
	var slaveSum float64
	for _, sl := range s.Slaves {
		slaveSum += sl.EnergyJ
	}
	slaveSum += s.UnattributedJ
	if d := ulpDiff(slaveSum, s.TotalEnergyJ); d > maxEnergyUlps {
		t.Errorf("%s: per-slave energy sum off by %d ulps (sum %g, total %g)",
			tag, d, slaveSum, s.TotalEnergyJ)
	}

	// Counters: the registry mirrors must equal the bus ledger's own.
	if s.Accepted != c.bus.Accepted || s.Completed != c.bus.Completed ||
		s.Errored != c.bus.Errors || s.Rejected != c.bus.Rejected {
		t.Errorf("%s: tx counters diverge from the bus ledger: metrics a=%d c=%d e=%d r=%d, bus %+v",
			tag, s.Accepted, s.Completed, s.Errored, s.Rejected, c.bus)
	}
	if c.hasBeats && s.Beats != c.wordCalls {
		t.Errorf("%s: beats %d != slave word calls %d", tag, s.Beats, c.wordCalls)
	}
	if !c.hasBeats && clean {
		// Layer 2 books beats per completed data phase; on a clean run
		// that is exactly the word count of every transaction that
		// finished OK (error-retired requests never reach a data phase).
		var want uint64
		for _, tr := range c.master.Completed() {
			if !tr.Err {
				want += uint64(tr.Words())
			}
		}
		if s.Beats != want {
			t.Errorf("%s: beats %d != completed words %d", tag, s.Beats, want)
		}
	}

	// Retries: registry == master ledger == sum over final transactions.
	if s.Retries != uint64(c.master.TotalRetries()) {
		t.Errorf("%s: retries %d != master total %d", tag, s.Retries, c.master.TotalRetries())
	}
	var trSum uint64
	for _, tr := range c.master.Completed() {
		trSum += uint64(tr.Retries)
	}
	if s.Retries != trSum {
		t.Errorf("%s: retries %d != sum of Transaction.Retries %d", tag, s.Retries, trSum)
	}

	// Occupancy: never beyond the protocol's per-category limit.
	for cat := 0; cat < int(ecbus.NumCategories); cat++ {
		if s.Occupancy[cat].Max > ecbus.MaxOutstanding {
			t.Errorf("%s: %s occupancy %d exceeds limit %d",
				tag, ecbus.Category(cat), s.Occupancy[cat].Max, ecbus.MaxOutstanding)
		}
	}

	// Latency: a transaction that finished OK retired no earlier than
	// it was issued.
	for _, tr := range c.master.Completed() {
		if !tr.Err && tr.DataCycle < tr.IssueCycle {
			t.Errorf("%s: #%d retired at %d before issue %d", tag, tr.ID, tr.DataCycle, tr.IssueCycle)
		}
	}
}

// TestMetricsInvariants checks the invariants on 100 randomized corpora
// at every layer, rotating through the named fault plans so the error
// and retry paths are load-bearing.
func TestMetricsInvariants(t *testing.T) {
	char := characterize(t)
	plans := []string{"none", "flaky", "storm", "grind"}
	seeds := 100
	if testing.Short() {
		seeds = 12
	}
	for seed := 1; seed <= seeds; seed++ {
		planName := plans[seed%len(plans)]
		plan, _ := fault.Named(planName)
		items := core.RandomCorpus(uint64(seed), 120, lay)
		for layer := 0; layer <= 2; layer++ {
			tag := fmt.Sprintf("seed%d/%s/layer%d", seed, planName, layer)
			c := meteredRun(t, layer, core.CloneItems(items), char, plan, eqRetry)
			checkInvariants(t, tag, c, items, plan.Empty())
		}
	}
}
