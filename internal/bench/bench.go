// Package bench regenerates the paper's evaluation artifacts — Table 1
// (timing error), Table 2 (energy estimation error), Table 3 (simulation
// performance), Figure 6 (layer-2 energy sampling) and the §4.3 case
// study exploration — as formatted text tables, from live simulations.
// cmd/ecbench prints them; the repository-root benchmarks measure the
// Table-3 throughput under `go test -bench`.
package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/gatepower"
	"repro/internal/javacard"
	"repro/internal/mem"
	"repro/internal/rtlbus"
	"repro/internal/sim"
	"repro/internal/tlm1"
	"repro/internal/tlm2"
)

// lay is the reference two-slave layout of the accuracy experiments.
var lay = core.Layout{Fast: 0, Slow: 0x10000}

func newMap() *ecbus.Map {
	return ecbus.MustMap(
		mem.NewRAM("fast", lay.Fast, 0x1000, 0, 0),
		mem.NewRAM("slow", lay.Slow, 0x1000, 1, 2),
	)
}

// runLayer drives items into a fresh bus of the given layer; returns
// cycles and the energy estimate (0 if energy off).
func runLayer(layer int, items []core.Item, energy bool, char gatepower.CharTable) (uint64, float64) {
	k := sim.New(0)
	var bus core.Initiator
	var get func() float64 = func() float64 { return 0 }
	switch layer {
	case 0:
		b := rtlbus.New(k, newMap())
		if energy {
			est := gatepower.NewEstimator(gatepower.DefaultConfig())
			k.AtObserver(sim.Post, "gp", func(uint64) { est.Observe(b.Wires()) }, est.ObserveIdle)
			get = est.TotalEnergy
		}
		bus = b
	case 1:
		b := tlm1.New(k, newMap())
		if energy {
			b.AttachPower(tlm1.NewPowerModel(char))
			get = b.Power().TotalEnergy
		}
		bus = b
	default:
		b := tlm2.New(k, newMap())
		if energy {
			b.AttachPower(tlm2.NewPowerModel(char))
			get = b.Power().TotalEnergy
		}
		bus = b
	}
	m, n := core.RunScript(k, bus, items, 10_000_000)
	if !m.Done() {
		panic("bench: run did not complete")
	}
	return n, get()
}

// CharTable characterizes once over the reference layout (paper §3.3).
func CharTable() gatepower.CharTable {
	k := sim.New(0)
	b := rtlbus.New(k, newMap())
	est := gatepower.NewEstimator(gatepower.DefaultConfig())
	k.AtObserver(sim.Post, "gp", func(uint64) { est.Observe(b.Wires()) }, est.ObserveIdle)
	m, _ := core.RunScript(k, b, core.CharCorpus(lay, 400), 10_000_000)
	if !m.Done() {
		panic("bench: characterization did not complete")
	}
	return est.Char()
}

// Table1Row is one abstraction level's timing result.
type Table1Row struct {
	Level    string
	Cycles   uint64
	RelPct   float64 // cycles relative to gate level, percent
	ErrorPct float64
}

// Table1 reproduces "Timing error between the gate-level simulation,
// transaction level layer one bus model and the transaction level layer
// two model" on the EC verification corpus.
func Table1() ([]Table1Row, string) {
	items := core.VerificationCorpus(lay)
	c0, _ := runLayer(0, core.CloneItems(items), false, gatepower.CharTable{})
	c1, _ := runLayer(1, core.CloneItems(items), false, gatepower.CharTable{})
	c2, _ := runLayer(2, core.CloneItems(items), false, gatepower.CharTable{})

	rows := []Table1Row{
		{Level: "Gate-level model", Cycles: c0, RelPct: 100, ErrorPct: 0},
		{Level: "Layer one model", Cycles: c1, RelPct: 100 * float64(c1) / float64(c0), ErrorPct: 100 * (float64(c1)/float64(c0) - 1)},
		{Level: "Layer two model", Cycles: c2, RelPct: 100 * float64(c2) / float64(c0), ErrorPct: 100 * (float64(c2)/float64(c0) - 1)},
	}
	var sb strings.Builder
	sb.WriteString("Table 1: timing error vs gate-level reference (verification corpus)\n")
	fmt.Fprintf(&sb, "  %-20s %10s %10s %9s   (paper: gate 100%%, L1 100%%, L2 100.5%%)\n",
		"Abstraction Level", "Cycles", "Rel", "Error")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-20s %10d %9.2f%% %+8.2f%%\n", r.Level, r.Cycles, r.RelPct, r.ErrorPct)
	}
	return rows, sb.String()
}

// Table2Row is one abstraction level's energy result.
type Table2Row struct {
	Level    string
	EnergyPJ float64
	RelPct   float64
	ErrorPct float64
}

// Table2 reproduces "Energy estimation error of the transaction level
// models compared to the gate-level energy estimation".
func Table2() ([]Table2Row, string) {
	char := CharTable()
	items := core.VerificationCorpus(lay)
	_, e0 := runLayer(0, core.CloneItems(items), true, char)
	_, e1 := runLayer(1, core.CloneItems(items), true, char)
	_, e2 := runLayer(2, core.CloneItems(items), true, char)

	row := func(name string, e float64) Table2Row {
		return Table2Row{Level: name, EnergyPJ: e * 1e12, RelPct: 100 * e / e0, ErrorPct: 100 * (e/e0 - 1)}
	}
	rows := []Table2Row{
		row("Gate-level estimation", e0),
		row("TL layer 1 estimation", e1),
		row("TL layer 2 estimation", e2),
	}
	var sb strings.Builder
	sb.WriteString("Table 2: energy estimation error vs gate-level reference\n")
	fmt.Fprintf(&sb, "  %-24s %12s %10s %9s   (paper: 100 / 92.1 / 114.7)\n",
		"Abstraction Level", "Energy[pJ]", "Rel", "Error")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-24s %12.2f %9.1f%% %+8.1f%%\n", r.Level, r.EnergyPJ, r.RelPct, r.ErrorPct)
	}
	return rows, sb.String()
}

// Table3Row is one configuration's simulation-performance result.
type Table3Row struct {
	Model      string
	WithEnergy bool
	KTps       float64 // thousand transactions per wall-clock second
	Factor     float64 // vs layer 1 with energy
}

// Table3 reproduces "Simulation performance in executed bus transactions
// per second for the transaction level models with and without energy
// estimation" over the all-combinations workload, plus the layer-0
// reference row and the layer-3 screen, which predicts layer 2's
// figures from one counting pass. n sets the transactions per
// measurement run.
func Table3(n int) ([]Table3Row, string) {
	char := CharTable()
	measure := func(run func(items []core.Item)) float64 {
		// Best of three runs: wall-clock throughput is noisy at
		// millisecond scales and the paper reports peak simulator rates.
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			items := core.PerfCorpus(lay, n)
			start := time.Now()
			run(items)
			el := time.Since(start).Seconds()
			if r := float64(n) / el / 1e3; r > best {
				best = r
			}
		}
		return best
	}
	exact := func(layer int, energy bool) float64 {
		return measure(func(items []core.Item) { runLayer(layer, items, energy, char) })
	}
	// The screen's calibrated model is fitted once per process; load it
	// before timing, as every later caller finds it.
	if _, err := ScreenModel(); err != nil {
		panic(err)
	}
	screen := func() float64 {
		return measure(func(items []core.Item) {
			if _, _, err := ScreenCorpus(2, items); err != nil {
				panic(err)
			}
		})
	}
	// Warm up once to stabilize allocator effects.
	exact(1, true)

	rows := []Table3Row{
		{Model: "TL Layer 1", WithEnergy: true, KTps: exact(1, true)},
		{Model: "TL Layer 1", WithEnergy: false, KTps: exact(1, false)},
		{Model: "TL Layer 2", WithEnergy: true, KTps: exact(2, true)},
		{Model: "TL Layer 2", WithEnergy: false, KTps: exact(2, false)},
		{Model: "TL Layer 3 (screen)", WithEnergy: true, KTps: screen()},
		{Model: "Layer 0 (signal)", WithEnergy: true, KTps: exact(0, true)},
		{Model: "Layer 0 (signal)", WithEnergy: false, KTps: exact(0, false)},
	}
	base := rows[0].KTps
	for i := range rows {
		rows[i].Factor = rows[i].KTps / base
	}
	var sb strings.Builder
	sb.WriteString("Table 3: simulation performance (kTransactions/s), all single/burst R/W combinations\n")
	fmt.Fprintf(&sb, "  %-20s %-10s %10s %8s   (paper: L1 85.3/94.6, L2 129.6/145.8 kT/s; factors 1/1.1/1.52/1.7)\n",
		"Model", "Energy", "kT/s", "Factor")
	for _, r := range rows {
		en := "with"
		if !r.WithEnergy {
			en = "without"
		}
		fmt.Fprintf(&sb, "  %-20s %-10s %10.1f %8.2f\n", r.Model, en, r.KTps, r.Factor)
	}
	return rows, sb.String()
}

// Figure6 reproduces the layer-2 energy sampling behaviour: with three
// requests in flight (read, write, read to the slow slave), a sample
// taken mid-stream contains only the phases finished so far.
func Figure6() string {
	char := CharTable()
	k := sim.New(0)
	b := tlm2.New(k, newMap()).AttachPower(tlm2.NewPowerModel(char))

	mk := func(id uint64, kind ecbus.Kind, addr uint64) core.Item {
		tr, err := ecbus.NewSingle(id, kind, addr, ecbus.W32, uint32(id)*0x1111)
		if err != nil {
			panic(err)
		}
		return core.Item{Tr: tr}
	}
	items := []core.Item{
		mk(1, ecbus.Read, lay.Slow),
		mk(2, ecbus.Write, lay.Slow+4),
		mk(3, ecbus.Read, lay.Slow+8),
	}
	m := core.NewScriptMaster(k, b, items)

	var sb strings.Builder
	sb.WriteString("Figure 6: layer-2 energy sampling (slow slave: AW=1, DW=2)\n")
	sb.WriteString("  sample       addrPhases dataPhases EnergySince[pJ]\n")
	lastA, lastD := uint64(0), uint64(0)
	sample := func(name string) {
		a, d := b.Power().Phases()
		e := b.Power().EnergySince()
		fmt.Fprintf(&sb, "  %-12s +%d         +%d         %10.2f\n", name, a-lastA, d-lastD, e*1e12)
		lastA, lastD = a, d
	}
	// t1 after cycle 3: address phases of requests 1 and 2 finished, no
	// data phase yet — the paper's "energy at t1 contains the address
	// phases of request one and two".
	for cyc := 0; cyc <= 3; cyc++ {
		k.Step()
	}
	sample("t1 (cyc 3)")
	// t2 after cycle 6: address phase of request 3 plus the data phases
	// of the first two requests; the data phase of request 3 is still in
	// progress and "is not included".
	for cyc := 4; cyc <= 6; cyc++ {
		k.Step()
	}
	sample("t2 (cyc 6)")
	k.RunUntil(100, m.Done)
	sample("end")
	sb.WriteString("  Energy appears only when a phase finishes; a data phase still in\n")
	sb.WriteString("  progress at the sampling instant is not included (paper Fig. 6).\n")
	return sb.String()
}

// newFaultMap is newMap with every slave wrapped in a fresh injector
// applying plan.
func newFaultMap(plan fault.Plan) *ecbus.Map {
	return ecbus.MustMap(
		fault.Wrap(mem.NewRAM("fast", lay.Fast, 0x1000, 0, 0), plan),
		fault.Wrap(mem.NewRAM("slow", lay.Slow, 0x1000, 1, 2), plan),
	)
}

// FaultRetry is the master retry policy used by the fault table runs.
var FaultRetry = core.RetryPolicy{MaxRetries: 8, Backoff: 1}

// FaultRow is one abstraction level's result under a fault plan.
type FaultRow struct {
	Level       string
	Cycles      uint64
	DCyclesPct  float64 // vs the same layer's clean run
	EnergyPJ    float64
	DEnergyPct  float64
	Errors      int // transactions errored after exhausting retries
	Retries     int // total re-issues
	CheckerMsgs int // protocol violations flagged (layer 0 only)

	// energyJ is the estimator's raw joule total, before the pJ scaling
	// of the rendered table — the figure the serving layer caches and
	// compares bit for bit.
	energyJ float64
}

// runLayerFault drives the corpus into a fresh bus of the given layer
// under a fault plan with the FaultRetry master policy.
func runLayerFault(layer int, items []core.Item, char gatepower.CharTable, plan fault.Plan) (FaultRow, error) {
	return runLayerFaultMap(layer, items, char, newFaultMap(plan))
}

// runLayerFaultMap is runLayerFault over an explicit address map — the
// campaign organizations build their own fault-wrapped maps.
func runLayerFaultMap(layer int, items []core.Item, char gatepower.CharTable, bmap *ecbus.Map) (FaultRow, error) {
	k := sim.New(0)
	var bus core.Initiator
	get := func() float64 { return 0 }
	switch layer {
	case 0:
		b := rtlbus.New(k, bmap)
		est := gatepower.NewEstimator(gatepower.DefaultConfig())
		k.AtObserver(sim.Post, "gp", func(uint64) { est.Observe(b.Wires()) }, est.ObserveIdle)
		get = est.TotalEnergy
		bus = b
	case 1:
		b := tlm1.New(k, bmap).AttachPower(tlm1.NewPowerModel(char))
		get = b.Power().TotalEnergy
		bus = b
	default:
		b := tlm2.New(k, bmap).AttachPower(tlm2.NewPowerModel(char))
		get = b.Power().TotalEnergy
		bus = b
	}
	m := core.NewScriptMaster(k, bus, items)
	m.Retry = FaultRetry
	n, _ := k.RunUntil(10_000_000, m.Done)
	if !m.Done() {
		return FaultRow{}, fmt.Errorf("bench: layer-%d fault run did not complete", layer)
	}
	e := get()
	return FaultRow{
		Cycles: n, EnergyPJ: e * 1e12, energyJ: e,
		Errors: m.Errors(), Retries: m.TotalRetries(),
	}, nil
}

// FaultTable runs the back-to-back Table-3 workload (256 transactions)
// under a named fault plan at every abstraction level and reports the
// timing/energy deltas against each layer's own clean run — the
// robustness companion to Tables 1/2. The pipelined perf corpus is used
// instead of the sparse verification corpus so wait-state storms and
// retries show up in the cycle count rather than being absorbed by
// issue gaps.
func FaultTable(planName string) ([]FaultRow, string, error) {
	plan, ok := fault.Named(planName)
	if !ok {
		return nil, "", fmt.Errorf("bench: unknown fault plan %q (have %v)", planName, fault.Names)
	}
	char := CharTable()
	items := func() []core.Item { return core.PerfCorpus(lay, 256) }
	names := []string{"Gate-level model", "Layer one model", "Layer two model"}
	rows := make([]FaultRow, 0, 3)
	for layer := 0; layer <= 2; layer++ {
		clean, err := runLayerFault(layer, items(), char, fault.Plan{})
		if err != nil {
			return nil, "", err
		}
		r, err := runLayerFault(layer, items(), char, plan)
		if err != nil {
			return nil, "", err
		}
		r.Level = names[layer]
		r.DCyclesPct = 100 * (float64(r.Cycles)/float64(clean.Cycles) - 1)
		r.DEnergyPct = 100 * (r.EnergyPJ/clean.EnergyPJ - 1)
		rows = append(rows, r)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fault table: 256-transaction perf corpus under plan %q (retry %d, backoff %d)\n",
		planName, FaultRetry.MaxRetries, FaultRetry.Backoff)
	fmt.Fprintf(&sb, "  %-20s %10s %9s %12s %9s %7s %8s\n",
		"Abstraction Level", "Cycles", "ΔCyc", "Energy[pJ]", "ΔEnergy", "errors", "retries")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-20s %10d %+8.2f%% %12.2f %+8.2f%% %7d %8d\n",
			r.Level, r.Cycles, r.DCyclesPct, r.EnergyPJ, r.DEnergyPct, r.Errors, r.Retries)
	}
	return rows, sb.String(), nil
}

// ExplorationLayers reproduces the §4.3 case-study table over the full
// sweep at a caller-chosen layer list (explore.SweepLayers vocabulary,
// validated by the sweep), with caller-tuned sweep options so
// cmd/ecbench can set the worker count and stream rows as they land.
func ExplorationLayers(opts explore.SweepOpts, layers []int) (string, error) {
	results, err := explore.SweepWith(opts, layers, javacard.Organizations, explore.AddrMaps, javacard.Workloads())
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Case study (paper 4.3): Java Card VM HW/SW interface exploration\n")
	sb.WriteString(explore.Table(results))
	sb.WriteString("\nPareto frontier (cycles vs bus energy, per workload):\n")
	sb.WriteString(explore.Table(explore.Pareto(results)))
	return sb.String(), nil
}
