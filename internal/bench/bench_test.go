package bench

import (
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
)

func TestTable1ReproducesPaperShape(t *testing.T) {
	rows, text := Table1()
	if rows[1].ErrorPct != 0 {
		t.Errorf("layer-1 timing error %.3f%%, paper reports 0%%", rows[1].ErrorPct)
	}
	if rows[2].ErrorPct <= 0 || rows[2].ErrorPct > 1.5 {
		t.Errorf("layer-2 timing error %.3f%% outside (0, 1.5]%% (paper: +0.5%%)", rows[2].ErrorPct)
	}
	if !strings.Contains(text, "Table 1") {
		t.Error("missing caption")
	}
	t.Log("\n" + text)
}

func TestTable2ReproducesPaperShape(t *testing.T) {
	rows, text := Table2()
	l1, l2 := rows[1], rows[2]
	if l1.ErrorPct >= 0 || l1.ErrorPct < -15 {
		t.Errorf("layer-1 energy error %+.1f%% not in [-15, 0) (paper: -7.8%%)", l1.ErrorPct)
	}
	if l2.ErrorPct <= 0 || l2.ErrorPct > 25 {
		t.Errorf("layer-2 energy error %+.1f%% not in (0, 25] (paper: +14.7%%)", l2.ErrorPct)
	}
	t.Log("\n" + text)
}

func TestTable3ReproducesPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	rows, text := Table3(150000)
	get := func(model string, energy bool) float64 {
		for _, r := range rows {
			if r.Model == model && r.WithEnergy == energy {
				return r.KTps
			}
		}
		t.Fatalf("row %s/%v missing", model, energy)
		return 0
	}
	l1e, l2e := get("TL Layer 1", true), get("TL Layer 2", true)
	rtlE, rtl := get("Layer 0 (signal)", true), get("Layer 0 (signal)", false)
	// Paper shape, restricted to the relations this implementation
	// reproduces robustly (see EXPERIMENTS.md): energy estimation costs
	// throughput, most of all at gate level; the layer-2 energy model
	// (per finished phase) simulates faster than the layer-1 one (per
	// cycle) — the paper's 1.52x factor between the estimating models.
	// The energy-cost claim is timed on its own, in interleaved pairs
	// compared by median, so a load burst on a shared machine slows both
	// sides of a pair alike instead of one side's whole best-of-three.
	if with, without := tl1PairMedians(9, 150000); with > without*1.05 {
		t.Errorf("L1 with energy (%.0f) faster than without (%.0f), medians of 9 interleaved pairs", with, without)
	}
	// Cross-model wall-clock comparisons fluctuate by tens of percent on
	// shared machines; they are reported (here and in EXPERIMENTS.md)
	// rather than asserted. The expected shapes on quiet hardware:
	// L2+energy ~1.1-1.4x L1+energy (paper: 1.52x), gate-level
	// estimation the slowest configuration.
	t.Logf("L2+energy / L1+energy throughput factor: %.2f (paper: 1.52)", l2e/l1e)
	t.Logf("gate-level estimation: %.0f kT/s vs %.0f kT/s without", rtlE, rtl)
	t.Log("\n" + text)
}

// tl1PairMedians times TL1 with and without energy estimation in
// interleaved pairs, alternating which side runs first, and returns
// each side's median throughput in kT/s.
func tl1PairMedians(pairs, n int) (with, without float64) {
	char := CharTable()
	rate := func(energy bool) float64 {
		items := core.PerfCorpus(lay, n)
		runtime.GC() // no run pays for the garbage of the one before
		start := time.Now()
		runLayer(1, items, energy, char)
		return float64(n) / time.Since(start).Seconds() / 1e3
	}
	var ws, wos []float64
	for i := 0; i < pairs; i++ {
		if i%2 == 0 {
			ws = append(ws, rate(true))
			wos = append(wos, rate(false))
		} else {
			wos = append(wos, rate(false))
			ws = append(ws, rate(true))
		}
	}
	median := func(xs []float64) float64 {
		sort.Float64s(xs)
		return xs[len(xs)/2]
	}
	return median(ws), median(wos)
}

func TestFigure6Text(t *testing.T) {
	text := Figure6()
	for _, want := range []string{"Figure 6", "addrPh", "phase finishes"} {
		if !strings.Contains(text, want) {
			t.Fatalf("figure text missing %q:\n%s", want, text)
		}
	}
	t.Log("\n" + text)
}

func TestExplorationTable(t *testing.T) {
	text, err := ExplorationLayers(explore.SweepOpts{}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Case study", "Pareto", "wallet", "arith-loop", "stack-churn"} {
		if !strings.Contains(text, want) {
			t.Fatalf("exploration missing %q", want)
		}
	}
	t.Log("\n" + text)
}

func TestCharTableDeterministic(t *testing.T) {
	if CharTable() != CharTable() {
		t.Fatal("characterization not deterministic")
	}
}
