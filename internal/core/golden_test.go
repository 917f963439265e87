package core_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/bench"
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
	"repro/internal/trace"
)

// The golden-equivalence layer: every observable output of a simulation
// must be byte-identical between the reference path (full-scan energy
// models, no idle-cycle skipping) and the optimized path (dirty-mask
// iteration, precomputed tables, ring queues, idle fast-forward).
// Timing fields and cycle counts are compared exactly; energy figures
// are compared as raw IEEE-754 bit patterns, so even a last-ulp drift
// from reordered float arithmetic fails the test.

// goldenCapture is everything observable from one run.
type goldenCapture struct {
	cycles   uint64
	done     bool
	errors   int
	retries  int
	timing   string // per-transaction timing fields, in completion order
	energy   string // every energy figure as hex float bits
	trace    string // trace.Save bytes of the recorded transaction stream
	stats    string // the bus ledger's counts, rejections included
	counts   string // the registry's transaction counters ("" unmetered)
	rejected uint64 // the ledger's Rejected count, for the exercised checks
	waits    uint64 // the registry's wait cycles (0 unmetered), checked by TestGoldenWaitCycles
	skipped  uint64 // diagnostics only, NOT compared
}

// compareGolden requires a reference and an optimized capture of one
// run to be identical in everything but the skipped-cycle diagnostic.
func compareGolden(t *testing.T, ref, opt goldenCapture) {
	t.Helper()
	if !ref.done || !opt.done {
		t.Fatalf("incomplete run: ref=%v opt=%v", ref.done, opt.done)
	}
	if ref.cycles != opt.cycles {
		t.Errorf("cycles: ref %d, opt %d (opt skipped %d)", ref.cycles, opt.cycles, opt.skipped)
	}
	if ref.errors != opt.errors {
		t.Errorf("errors: ref %d, opt %d", ref.errors, opt.errors)
	}
	if ref.retries != opt.retries {
		t.Errorf("retries: ref %d, opt %d", ref.retries, opt.retries)
	}
	if ref.timing != opt.timing {
		t.Errorf("transaction timing diverged:\nref:\n%s\nopt:\n%s", ref.timing, opt.timing)
	}
	if ref.energy != opt.energy {
		t.Errorf("energy bits diverged:\nref: %s\nopt: %s", ref.energy, opt.energy)
	}
	if ref.trace != opt.trace {
		t.Errorf("trace bytes diverged")
	}
	if ref.stats != opt.stats {
		t.Errorf("bus stats diverged:\nref: %s\nopt: %s", ref.stats, opt.stats)
	}
	if ref.counts != opt.counts {
		t.Errorf("registry counts diverged:\nref: %s\nopt: %s", ref.counts, opt.counts)
	}
	if ref.skipped != 0 {
		t.Errorf("reference path skipped %d cycles; must execute every cycle", ref.skipped)
	}
}

// checkGolden runs items on the reference and the optimized path, once
// plain and once with a registry attached, requires each pair of
// captures to be identical, and returns the plain reference capture.
func checkGolden(t *testing.T, layer int, items []core.Item, char gatepower.CharTable,
	mp func() *ecbus.Map, retry core.RetryPolicy) goldenCapture {
	t.Helper()
	var first goldenCapture
	for _, metered := range []bool{false, true} {
		run := func() goldenCapture {
			var reg *metrics.Registry
			if metered {
				reg = metrics.New(fmt.Sprintf("L%d", layer))
			}
			return goldenRunMetered(t, layer, core.CloneItems(items), char, mp, retry, reg)
		}
		var ref goldenCapture
		withReference(t, func() { ref = run() })
		compareGolden(t, ref, run())
		if !metered {
			first = ref
		}
	}
	return first
}

func f64bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// goldenRun drives items through a fresh platform of the given layer in
// the current reference/optimized mode and captures all outputs.
func goldenRun(t *testing.T, layer int, items []core.Item, char gatepower.CharTable) goldenCapture {
	t.Helper()
	return goldenRunOn(t, layer, items, char, testMap, core.RetryPolicy{})
}

// goldenRunOn is goldenRun over an arbitrary slave map and retry policy,
// so the same capture machinery covers fault-injected runs.
func goldenRunOn(t *testing.T, layer int, items []core.Item, char gatepower.CharTable,
	mp func() *ecbus.Map, retry core.RetryPolicy) goldenCapture {
	t.Helper()
	return goldenRunMetered(t, layer, items, char, mp, retry, nil)
}

// goldenRunMetered is goldenRunOn with an optional metrics registry
// attached to every hook point, so the equivalence suite can assert
// that observability never perturbs a capture.
func goldenRunMetered(t *testing.T, layer int, items []core.Item, char gatepower.CharTable,
	mp func() *ecbus.Map, retry core.RetryPolicy, reg *metrics.Registry) goldenCapture {
	t.Helper()
	k := sim.New(0)
	if reg != nil {
		k.SetRunObserver(reg)
	}
	var bus core.Initiator
	var energy func(sb *strings.Builder)
	var total func() float64
	var stats func() (string, uint64) // the bus ledger's counts and its Rejected count
	switch layer {
	case 0:
		b := rtlbus.New(k, mp())
		est := gatepower.NewEstimator(gatepower.DefaultConfig())
		k.AtObserver(sim.Post, "gp", func(uint64) { est.Observe(b.Wires()) }, est.ObserveIdle)
		if reg != nil {
			b.AttachMetrics(k, reg, est.TotalEnergy)
		}
		bus = b
		stats = func() (string, uint64) { st := b.Counts(); return fmt.Sprintf("%+v", st), st.Rejected }
		total = est.TotalEnergy
		energy = func(sb *strings.Builder) {
			sb.WriteString(f64bits(est.TotalEnergy()))
			sb.WriteString(f64bits(est.InterfaceEnergy()))
			fmt.Fprintf(sb, "cycles=%d", est.Cycles())
			bd := est.Breakdown()
			sb.WriteString(bd.String())
			ct := est.Char()
			for id := ecbus.SignalID(0); id < ecbus.NumSignals; id++ {
				sb.WriteString(f64bits(ct.PerTransitionJ[id]))
				st := est.SignalStats(id)
				fmt.Fprintf(sb, "r%d f%d ", st.Rises, st.Falls)
			}
		}
	case 1:
		b := tlm1.New(k, mp()).AttachPower(tlm1.NewPowerModel(char))
		if reg != nil {
			b.AttachMetrics(reg)
		}
		bus = b
		stats = func() (string, uint64) { st := b.Counts(); return fmt.Sprintf("%+v", st), st.Rejected }
		total = b.Power().TotalEnergy
		energy = func(sb *strings.Builder) {
			p := b.Power()
			sb.WriteString(f64bits(p.TotalEnergy()))
			sb.WriteString(f64bits(p.EnergyLastCycle()))
			fmt.Fprintf(sb, "tr=%d", p.Transitions())
		}
	default:
		b := tlm2.New(k, mp()).AttachPower(tlm2.NewPowerModel(char))
		if reg != nil {
			b.AttachMetrics(reg)
		}
		bus = b
		stats = func() (string, uint64) { st := b.Counts(); return fmt.Sprintf("%+v", st), st.Rejected }
		total = b.Power().TotalEnergy
		energy = func(sb *strings.Builder) {
			p := b.Power()
			sb.WriteString(f64bits(p.TotalEnergy()))
			a, d := p.Phases()
			fmt.Fprintf(sb, "a=%d d=%d", a, d)
		}
	}

	rec := trace.NewRecorder(bus)
	m := core.NewScriptMaster(k, rec, items)
	m.Retry = retry
	m.Metrics = reg
	n, _ := k.RunUntil(1_000_000, m.Done)
	if reg != nil {
		reg.Finalize(total())
	}

	var cap goldenCapture
	cap.cycles = n
	cap.done = m.Done()
	cap.errors = m.Errors()
	cap.retries = m.TotalRetries()
	cap.skipped = k.SkippedCycles()
	cap.stats, cap.rejected = stats()
	if reg != nil {
		snap := reg.Snapshot()
		cap.counts = fmt.Sprintf("accepted=%d completed=%d errored=%d rejected=%d",
			snap.Accepted, snap.Completed, snap.Errored, snap.Rejected)
		cap.waits = snap.WaitCycles
	}

	var tb strings.Builder
	for _, tr := range m.Completed() {
		fmt.Fprintf(&tb, "%d:%d/%d/%d/%v/%v\n",
			tr.ID, tr.IssueCycle, tr.AddrCycle, tr.DataCycle, tr.Done, tr.Err)
	}
	cap.timing = tb.String()

	var eb strings.Builder
	energy(&eb)
	cap.energy = eb.String()

	var sb strings.Builder
	if err := trace.Save(&sb, rec.Records()); err != nil {
		t.Fatalf("trace save: %v", err)
	}
	cap.trace = sb.String()
	return cap
}

// withReference runs fn with the reference path selected, restoring the
// optimized default afterwards even on test failure.
func withReference(t *testing.T, fn func()) {
	t.Helper()
	core.SetReference(true)
	defer core.SetReference(false)
	fn()
}

// goldenCase is one corpus of the golden matrix and the map it runs on.
type goldenCase struct {
	items []core.Item
	mp    func() *ecbus.Map
}

// nvmMap is the NVM card organization of the campaigns: the fast RAM
// and a data memory with a 256-cycle programming wait per written word.
// Its writes fill the write category for hundreds of cycles, so a
// master spends most of the run refused by a full bus.
func nvmMap() *ecbus.Map { return nvmFaultMap(fault.Plan{}) }

func nvmFaultMap(plan fault.Plan) *ecbus.Map {
	return ecbus.MustMap(
		fault.Wrap(mem.NewRAM("fast", lay.Fast, 0x1000, 0, 0), plan),
		fault.Wrap(mem.NewNVRAM("nvm", lay.Slow, 0x1000, 1, 2, bench.NVMWriteWait), plan),
	)
}

func goldenCorpora() map[string]goldenCase {
	c := map[string]goldenCase{
		"verification": {core.VerificationCorpus(lay), testMap},
		"perf":         {core.PerfCorpus(lay, 256), testMap},
		"char":         {core.CharCorpus(lay, 120), testMap},
		"nvm":          {core.RandomCorpus(5, 200, lay), nvmMap},
	}
	for seed := uint64(1); seed <= 4; seed++ {
		c[fmt.Sprintf("random-%d", seed)] = goldenCase{core.RandomCorpus(seed, 200, lay), testMap}
	}
	return c
}

// TestGoldenEquivalence runs the full corpus matrix through every layer
// in both modes and requires byte-identical captures.
func TestGoldenEquivalence(t *testing.T) {
	char := characterize(t)
	for name, gc := range goldenCorpora() {
		for layer := 0; layer <= 2; layer++ {
			t.Run(fmt.Sprintf("%s/layer%d", name, layer), func(t *testing.T) {
				checkGolden(t, layer, gc.items, char, gc.mp, core.RetryPolicy{})
			})
		}
	}
}

// TestGoldenWaitCycles requires the registry's wait-cycle count to be
// the same on both paths: a cycle the kernel skips must book the wait
// states the executed countdown tick would have booked.
func TestGoldenWaitCycles(t *testing.T) {
	char := characterize(t)
	for name, gc := range goldenCorpora() {
		for layer := 0; layer <= 2; layer++ {
			t.Run(fmt.Sprintf("%s/layer%d", name, layer), func(t *testing.T) {
				run := func() goldenCapture {
					reg := metrics.New(fmt.Sprintf("L%d", layer))
					return goldenRunMetered(t, layer, core.CloneItems(gc.items), char, gc.mp, core.RetryPolicy{}, reg)
				}
				var ref goldenCapture
				withReference(t, func() { ref = run() })
				if opt := run(); opt.waits != ref.waits {
					t.Errorf("wait cycles: ref %d, opt %d (opt skipped %d)", ref.waits, opt.waits, opt.skipped)
				}
			})
		}
	}
}

// TestGoldenVCDEquivalence compares full per-cycle VCD wire dumps of the
// layer-0 model between modes. Attaching a VCD writer (an unhinted proc)
// pins the kernel to cycle-by-cycle execution, so this isolates the
// dirty-mask estimator and Bundle plumbing from idle skipping.
func TestGoldenVCDEquivalence(t *testing.T) {
	items := core.VerificationCorpus(lay)
	run := func() string {
		k := sim.New(0)
		b := rtlbus.New(k, testMap())
		var sb strings.Builder
		v := trace.NewVCD(&sb)
		k.At(sim.Post, "vcd", func(uint64) { v.Observe(b.Wires()) })
		m, _ := core.RunScript(k, b, core.CloneItems(items), 1_000_000)
		if !m.Done() {
			t.Fatal("run incomplete")
		}
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	var ref string
	withReference(t, func() { ref = run() })
	opt := run()
	if ref != opt {
		t.Fatal("VCD dumps differ between reference and optimized modes")
	}
}

// TestGoldenIdleSkipActuallySkips guards the performance property: on a
// corpus with idle gaps and wait states, the optimized path must
// fast-forward a nonzero number of cycles (otherwise the equivalence
// above is vacuous for the skip machinery). On the NVM corpus, whose
// master is refused by a full write category through most of each
// programming wait, it must sleep through at least 90% of the cycles:
// the refused master stops re-asking until a write completes.
func TestGoldenIdleSkipActuallySkips(t *testing.T) {
	char := characterize(t)
	for layer := 0; layer <= 2; layer++ {
		c := goldenRun(t, layer, core.VerificationCorpus(lay), char)
		if c.skipped == 0 {
			t.Errorf("layer %d: no cycles skipped on the verification corpus", layer)
		}
		nvm := goldenCorpora()["nvm"]
		c = goldenRunOn(t, layer, nvm.items, char, nvm.mp, core.RetryPolicy{})
		if frac := float64(c.skipped) / float64(c.cycles); frac < 0.9 {
			t.Errorf("layer %d: skipped %.3f of the NVM corpus's %d cycles, want >= 0.9",
				layer, frac, c.cycles)
		}
		if c.rejected == 0 {
			t.Errorf("layer %d: the NVM corpus drew no refusal, so no master slept on a full bus", layer)
		}
	}
}
