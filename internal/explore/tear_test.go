package explore

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/javacard"
	"repro/internal/platform"
)

func tornRun(t *testing.T, cfg Config, w javacard.Workload, metered bool) Result {
	t.Helper()
	p, err := prepare(w)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runPrepared(context.Background(), cfg, p, platform.DefaultCharTable(), metered)
	if err != nil {
		t.Fatalf("%v/%s: %v", cfg, w.Name, err)
	}
	return r
}

// The determinism gate, reference vs optimized: same (seed, plan)
// produces bit-identical cut cycle and IEEE-754 energy figures on the
// two bus paths.
func TestTornReferenceOptimizedBitIdentical(t *testing.T) {
	w := churn()
	for _, journal := range []string{"", "word-eager", "page-lazy"} {
		cfg := Config{Layer: 1, Org: javacard.Organizations[0], AddrMap: "near",
			Tear: "tear-mid", Journal: journal}

		core.SetReference(true)
		ref := tornRun(t, cfg, w, false)
		core.SetReference(false)
		opt := tornRun(t, cfg, w, false)

		if ref.Torn != opt.Torn || ref.CutCycle != opt.CutCycle || ref.Cycles != opt.Cycles {
			t.Fatalf("%s: cut diverges: ref %+v opt %+v", cfg, ref, opt)
		}
		if math.Float64bits(ref.BusEnergyJ) != math.Float64bits(opt.BusEnergyJ) {
			t.Fatalf("%s: energy differs: %x vs %x", cfg,
				math.Float64bits(ref.BusEnergyJ), math.Float64bits(opt.BusEnergyJ))
		}
		if math.Float64bits(ref.RecoveryJ) != math.Float64bits(opt.RecoveryJ) {
			t.Fatalf("%s: recovery energy differs: %x vs %x", cfg,
				math.Float64bits(ref.RecoveryJ), math.Float64bits(opt.RecoveryJ))
		}
	}
}

// The cross-layer half of the gate: the named plans cut in programming-
// op ordinal space, so the cut ordinal, the corruption extent and the
// journal's replay outcome are identical on layers 1 and 2 even though
// their cycle counts (and so the wall-clock cut positions) differ.
func TestTornCrossLayerOrdinalIdentity(t *testing.T) {
	w := churn()
	mk := func(layer int) Result {
		return tornRun(t, Config{Layer: layer, Org: javacard.Organizations[0], AddrMap: "near",
			Tear: "tear-mid", Journal: "word-eager"}, w, true)
	}
	l1, l2 := mk(1), mk(2)
	if !l1.Torn || !l2.Torn {
		t.Fatalf("both layers must tear: L1 %v L2 %v", l1.Torn, l2.Torn)
	}
	t1, t2 := l1.Metrics.Tear, l2.Metrics.Tear
	if t1.CutOp != t2.CutOp || t1.CutOp == 0 {
		t.Fatalf("cut ordinal differs across layers: L1 op %d, L2 op %d", t1.CutOp, t2.CutOp)
	}
	if t1.CorruptWords != t2.CorruptWords {
		t.Fatalf("corruption extent differs: %d vs %d", t1.CorruptWords, t2.CorruptWords)
	}
	j1, j2 := l1.Metrics.Journal, l2.Metrics.Journal
	if j1.Records != j2.Records || j1.Commits != j2.Commits ||
		j1.FramesReplayed != j2.FramesReplayed || j1.WordsApplied != j2.WordsApplied {
		t.Fatalf("replay outcome differs across layers:\nL1 %+v\nL2 %+v", j1, j2)
	}
}

// Per-phase recovery attribution: the metered snapshot's total is
// bit-for-bit the reported two-phase energy, the replay phases are
// present, and their figures sit inside the recovery total.
func TestTornMeteredAttribution(t *testing.T) {
	w := churn()
	r := tornRun(t, Config{Layer: 1, Org: javacard.Organizations[0], AddrMap: "near",
		Tear: "tear-mid", Journal: "word-lazy"}, w, true)
	if r.Metrics == nil {
		t.Fatal("metered run without snapshot")
	}
	if math.Float64bits(r.Metrics.TotalEnergyJ) != math.Float64bits(r.BusEnergyJ) {
		t.Fatalf("snapshot total %x != result energy %x",
			math.Float64bits(r.Metrics.TotalEnergyJ), math.Float64bits(r.BusEnergyJ))
	}
	j := r.Metrics.Journal
	if j.ScanJ <= 0 || j.ApplyJ <= 0 || j.FinalizeJ <= 0 {
		t.Fatalf("replay phases must each cost energy: %+v", j)
	}
	if r.RecoveryJ <= 0 || j.ScanJ >= r.RecoveryJ || j.ApplyJ >= r.RecoveryJ || j.FinalizeJ >= r.RecoveryJ {
		t.Fatalf("phase figures outside the recovery total %g: %+v", r.RecoveryJ, j)
	}
	if r.RecoveryJ >= r.BusEnergyJ {
		t.Fatalf("recovery %g not a fraction of the run %g", r.RecoveryJ, r.BusEnergyJ)
	}
	tbl := r.Metrics.Table()
	for _, want := range []string{"tear: cut at cycle", "journal:", "replay:"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("metered table misses %q:\n%s", want, tbl)
		}
	}
}

// An unjournaled torn run still completes (the tear is the experiment,
// recovery is simply impossible), and a journaled untorn run measures
// pure journaling overhead against the identical clean baseline.
func TestTornAndJournalAxesIndependent(t *testing.T) {
	w := churn()
	org := javacard.Organizations[0]

	bare := tornRun(t, Config{Layer: 1, Org: org, AddrMap: "near", Tear: "tear-early"}, w, false)
	if !bare.Torn {
		t.Fatal("tear-early must cut the unjournaled run")
	}
	if bare.RecoveryJ != 0 {
		t.Fatalf("unjournaled run has no replay: recovery %g", bare.RecoveryJ)
	}

	clean := tornRun(t, Config{Layer: 1, Org: org, AddrMap: "near"}, w, false)
	journaled := tornRun(t, Config{Layer: 1, Org: org, AddrMap: "near", Journal: "word-eager"}, w, false)
	if journaled.Torn {
		t.Fatal("untorn journaled run reported torn")
	}
	if journaled.BusEnergyJ <= clean.BusEnergyJ {
		t.Fatalf("journaling overhead missing: %g <= %g", journaled.BusEnergyJ, clean.BusEnergyJ)
	}
	if clean.Torn || clean.CutCycle != 0 || clean.RecoveryJ != 0 {
		t.Fatalf("clean config took the torn path: %+v", clean)
	}
}

// Tear plans that journal protects: the committed prefix survives.
// (runTorn verifies recovered words internally and errors on loss, so
// the assertion here is that every strategy × plan pair round-trips.)
// tear-late cuts at program op 32, which lazy word journaling may
// legitimately never reach — superseding buffered writes to the same
// address is the whole point of the strategy — so for that plan the
// runs only have to complete, and at least the eager strategies (which
// program per write) must still be cut.
func TestTornEveryStrategyRecovers(t *testing.T) {
	w := churn()
	lateFired := 0
	for _, plan := range []string{"tear-early", "tear-mid", "tear-late"} {
		for _, strat := range []string{"word-eager", "word-lazy", "page-eager", "page-lazy"} {
			cfg := Config{Layer: 1, Org: javacard.Organizations[0], AddrMap: "near",
				Tear: plan, Journal: strat}
			r := tornRun(t, cfg, w, false)
			switch {
			case plan == "tear-late":
				if r.Torn {
					lateFired++
				}
			case !r.Torn:
				t.Fatalf("%s: plan did not fire", cfg)
			}
		}
	}
	if lateFired < 2 {
		t.Fatalf("tear-late fired under %d strategies, want at least the two eager ones", lateFired)
	}
}

func TestTornRejectsUnsupportedCombos(t *testing.T) {
	p, err := prepare(churn())
	if err != nil {
		t.Fatal(err)
	}
	char := platform.DefaultCharTable()
	org := javacard.Organizations[0]

	if _, err := runPrepared(context.Background(), Config{Layer: 3, Org: org, AddrMap: "near",
		Tear: "tear-mid"}, p, char, false); err == nil || !strings.Contains(err.Error(), "timed layer") {
		t.Fatalf("layer 3 + tear must be rejected, got %v", err)
	}
	if _, err := runPrepared(context.Background(), Config{Layer: 1, Org: org, AddrMap: "near",
		Tear: "tear-mid", Arb: "rr"}, p, char, false); err == nil || !strings.Contains(err.Error(), "single-master") {
		t.Fatalf("arb + tear must be rejected, got %v", err)
	}
}

func TestSweepTearAxes(t *testing.T) {
	var rows []Result
	opts := SweepOpts{
		Workers:  1,
		Tears:    []string{"", "tear-early"},
		Journals: []string{"", "word-eager"},
	}
	res, err := SweepWith(opts, []int{1}, []javacard.Organization{javacard.Organizations[0]},
		[]string{"near"}, []javacard.Workload{churn()})
	if err != nil {
		t.Fatal(err)
	}
	rows = res
	if len(rows) != 4 {
		t.Fatalf("want 2×2 axis cross product, got %d rows", len(rows))
	}
	// Canonical order: tears outer, journals inner.
	wantCfg := []string{"", "word-eager", "tear-early", "tear-early/word-eager"}
	for i, r := range rows {
		s := r.Config.String()
		suffix := strings.TrimPrefix(s, "L1/"+javacard.Organizations[0].String()+"/near")
		suffix = strings.TrimPrefix(suffix, "/")
		if suffix != wantCfg[i] {
			t.Fatalf("row %d config = %q, want suffix %q", i, s, wantCfg[i])
		}
	}
}

func TestParseTearsAndJournals(t *testing.T) {
	tears, err := TearAxis.Parse("none,tear-mid")
	if err != nil {
		t.Fatal(err)
	}
	if len(tears) != 2 || tears[0] != "" || tears[1] != "tear-mid" {
		t.Fatalf("tears = %q", tears)
	}
	if _, err := TearAxis.Parse("tear-sideways"); err == nil {
		t.Fatal("unknown tear plan accepted")
	}
	js, err := JournalAxis.Parse("none, word-lazy")
	if err != nil {
		t.Fatal(err)
	}
	if len(js) != 2 || js[0] != "" || js[1] != "word-lazy" {
		t.Fatalf("journals = %q", js)
	}
	if _, err := JournalAxis.Parse("page-sometimes"); err == nil {
		t.Fatal("unknown journal strategy accepted")
	}
}
