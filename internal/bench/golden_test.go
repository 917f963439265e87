package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
)

// The reported artifacts (Table 1, Table 2, Figure 6 and the fault
// table under every plan) must be byte-identical between the reference
// and the optimized per-cycle hot path: the performance work must not
// change any published number. Table 3 is wall-clock throughput and is
// inherently non-deterministic, so it is exercised (not compared)
// elsewhere. Both modes price Table 2 with the one memoized
// characterization table; the platform package's golden test checks
// that table is itself mode-invariant.

func captureArtifacts(t *testing.T) map[string]string {
	out := map[string]string{}
	_, out["Table 1"] = Table1()
	_, out["Table 2"] = Table2()
	out["Figure 6"] = Figure6()
	for _, name := range fault.Names {
		_, text, err := FaultTable(name)
		if err != nil {
			t.Fatalf("fault table %q: %v", name, err)
		}
		out["fault table "+name] = text
	}
	return out
}

func TestReportedArtifactsModeInvariant(t *testing.T) {
	core.SetReference(true)
	ref := captureArtifacts(t)
	core.SetReference(false)
	opt := captureArtifacts(t)

	for name, r := range ref {
		if o := opt[name]; r != o {
			t.Errorf("%s differs between modes:\nreference:\n%s\noptimized:\n%s", name, r, o)
		}
	}
}
