package sim

import "testing"

// hintedCounter is a minimal hinted proc: it needs to run every `period`
// cycles and counts executions and skip notifications.
type hintedCounter struct {
	period  uint64
	runs    uint64
	skipped uint64
	last    uint64 // last executed cycle
	started bool
}

func (h *hintedCounter) proc(c uint64) { h.runs++; h.last = c; h.started = true }
func (h *hintedCounter) hint(now uint64) uint64 {
	if !h.started {
		return now
	}
	return h.last + h.period
}
func (h *hintedCounter) onSkip(n uint64) { h.skipped += n }

func TestIdleSkipJumpsToNextEvent(t *testing.T) {
	k := New(0)
	h := &hintedCounter{period: 10}
	k.AtHinted(Rising, "h", h.proc, h.hint, h.onSkip)
	n := k.Run(101)
	if n != 101 {
		t.Fatalf("Run = %d, want 101 (skipped cycles count as executed)", n)
	}
	if k.Cycle() != 101 {
		t.Fatalf("Cycle = %d, want 101", k.Cycle())
	}
	// Executions at cycles 0,10,20,...,100 → 11 runs; 90 cycles skipped.
	if h.runs != 11 {
		t.Fatalf("runs = %d, want 11", h.runs)
	}
	if h.skipped != 90 || k.SkippedCycles() != 90 {
		t.Fatalf("skipped = %d (kernel %d), want 90", h.skipped, k.SkippedCycles())
	}
	if k.IdleSkips() == 0 {
		t.Fatal("no skip events recorded")
	}
}

func TestUnhintedProcDisablesSkipping(t *testing.T) {
	k := New(0)
	h := &hintedCounter{period: 10}
	k.AtHinted(Rising, "h", h.proc, h.hint, h.onSkip)
	every := uint64(0)
	k.At(Post, "unhinted", func(uint64) { every++ })
	k.Run(100)
	if every != 100 {
		t.Fatalf("unhinted proc ran %d times, want 100", every)
	}
	if k.SkippedCycles() != 0 {
		t.Fatalf("kernel skipped %d cycles despite unhinted proc", k.SkippedCycles())
	}
}

func TestObserverDoesNotBlockSkipping(t *testing.T) {
	k := New(0)
	h := &hintedCounter{period: 10}
	k.AtHinted(Rising, "h", h.proc, h.hint, h.onSkip)
	var obsRuns, obsSkipped uint64
	k.AtObserver(Post, "obs", func(uint64) { obsRuns++ }, func(n uint64) { obsSkipped += n })
	k.Run(100)
	if k.SkippedCycles() == 0 {
		t.Fatal("observer blocked skipping")
	}
	if obsRuns+obsSkipped != 100 {
		t.Fatalf("observer saw %d runs + %d skipped ≠ 100", obsRuns, obsSkipped)
	}
}

func TestSetIdleSkipDisabled(t *testing.T) {
	SetIdleSkipDisabled(true)
	defer SetIdleSkipDisabled(false)
	k := New(0)
	h := &hintedCounter{period: 10}
	k.AtHinted(Rising, "h", h.proc, h.hint, h.onSkip)
	k.Run(100)
	if k.SkippedCycles() != 0 {
		t.Fatal("skipping occurred despite global disable")
	}
	if h.runs != 100 {
		t.Fatalf("runs = %d, want 100 in reference mode", h.runs)
	}
}

func TestRunUntilNeverSkipsFirstCycleOrNoEvent(t *testing.T) {
	// A proc whose hint immediately reports NoEvent: RunUntil must still
	// execute cycle by cycle (pre-satisfied or cycle-dependent done()
	// semantics), never jumping on an infinite horizon.
	k := New(0)
	runs := uint64(0)
	k.AtHinted(Rising, "quiet", func(uint64) { runs++ },
		func(now uint64) uint64 { return NoEvent }, nil)
	n, ok := k.RunUntil(5, func() bool { return k.Cycle() >= 3 })
	if !ok || n != 3 {
		t.Fatalf("RunUntil = (%d, %v), want (3, true)", n, ok)
	}
	if k.SkippedCycles() != 0 {
		t.Fatal("RunUntil skipped on a NoEvent horizon")
	}
}

func TestRunUntilSkipsToFiniteEvent(t *testing.T) {
	k := New(0)
	h := &hintedCounter{period: 50}
	k.AtHinted(Rising, "h", h.proc, h.hint, h.onSkip)
	done := func() bool { return h.runs >= 2 }
	n, ok := k.RunUntil(1000, done)
	if !ok {
		t.Fatal("done not reached")
	}
	// Runs at cycle 0 and 50; done checked after each cycle → 51 cycles.
	if n != 51 {
		t.Fatalf("RunUntil = %d cycles, want 51", n)
	}
	if k.SkippedCycles() != 49 {
		t.Fatalf("skipped = %d, want 49", k.SkippedCycles())
	}
}

func TestRunClampsSkipToMaxCycles(t *testing.T) {
	k := New(0)
	h := &hintedCounter{period: 1000}
	k.AtHinted(Rising, "h", h.proc, h.hint, h.onSkip)
	n := k.Run(10)
	if n != 10 || k.Cycle() != 10 {
		t.Fatalf("Run = %d, Cycle = %d; want 10, 10", n, k.Cycle())
	}
}

func TestRunClampsNoEventToMaxCycles(t *testing.T) {
	k := New(0)
	ran := false
	k.AtHinted(Rising, "quiet", func(uint64) { ran = true },
		func(now uint64) uint64 {
			if now == 0 {
				return now
			}
			return NoEvent
		}, nil)
	n := k.Run(20)
	if n != 20 || k.Cycle() != 20 {
		t.Fatalf("Run = %d, Cycle = %d; want 20, 20", n, k.Cycle())
	}
	if !ran {
		t.Fatal("proc never ran")
	}
	if k.SkippedCycles() != 19 {
		t.Fatalf("skipped = %d, want 19", k.SkippedCycles())
	}
}

func TestSkipDeterministicAcrossRuns(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		k := New(0)
		a := &hintedCounter{period: 7}
		b := &hintedCounter{period: 13}
		k.AtHinted(Rising, "a", a.proc, a.hint, a.onSkip)
		k.AtHinted(Falling, "b", b.proc, b.hint, b.onSkip)
		k.Run(500)
		return a.runs, b.runs, k.SkippedCycles()
	}
	a1, b1, s1 := run()
	a2, b2, s2 := run()
	if a1 != a2 || b1 != b2 || s1 != s2 {
		t.Fatalf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", a1, b1, s1, a2, b2, s2)
	}
	if s1 == 0 {
		t.Fatal("no skipping with two hinted procs")
	}
}

func TestAtHintedNilHintPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AtHinted with nil hint did not panic")
		}
	}()
	New(0).AtHinted(Rising, "bad", func(uint64) {}, nil, nil)
}
