package explore

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/javacard"
	"repro/internal/platform"
)

func TestParseArbs(t *testing.T) {
	got, err := ParseArbs("none,fixed,rr")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "" || got[1] != "fixed" || got[2] != "rr" {
		t.Fatalf("ParseArbs = %q", got)
	}
	for _, bad := range []string{"priority", "fixed,bogus", ""} {
		if _, err := ParseArbs(bad); err == nil {
			t.Fatalf("ParseArbs(%q) accepted", bad)
		}
	}
}

func TestConfigStringArb(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{Layer: 1, Org: javacard.OrgHalf, AddrMap: "near"}, "L1/halfword/near"},
		{Config{Layer: 1, Org: javacard.OrgHalf, AddrMap: "near", Fault: "flaky"}, "L1/halfword/near/flaky"},
		{Config{Layer: 2, Org: javacard.OrgHalf, AddrMap: "far", Arb: "rr"}, "L2/halfword/far/rr"},
		{Config{Layer: 2, Org: javacard.OrgHalf, AddrMap: "far", Fault: "storm", Arb: "fixed"}, "L2/halfword/far/storm/fixed"},
	}
	for _, c := range cases {
		if got := c.cfg.String(); got != c.want {
			t.Fatalf("Config.String() = %q, want %q", got, c.want)
		}
	}
}

// TestContendedRunCompletes pins the basic contract of a multi-master
// evaluation: it completes on both timed layers and both policies,
// carries the autonomous masters' extra traffic, and costs more energy
// than the same configuration single-master.
func TestContendedRunCompletes(t *testing.T) {
	char := platform.DefaultCharTable()
	w := churn()
	for _, layer := range []int{1, 2} {
		solo, err := Run(Config{Layer: layer, Org: javacard.OrgHalf, AddrMap: "near"}, w, char)
		if err != nil {
			t.Fatalf("L%d solo: %v", layer, err)
		}
		for _, pol := range ArbPolicies {
			r, err := Run(Config{Layer: layer, Org: javacard.OrgHalf, AddrMap: "near", Arb: pol}, w, char)
			if err != nil {
				t.Fatalf("L%d/%s: %v", layer, pol, err)
			}
			if r.Transactions <= solo.Transactions {
				t.Fatalf("L%d/%s: %d transactions, solo had %d — contenders missing",
					layer, pol, r.Transactions, solo.Transactions)
			}
			if r.BusEnergyJ <= solo.BusEnergyJ {
				t.Fatalf("L%d/%s: contended energy %g not above solo %g",
					layer, pol, r.BusEnergyJ, solo.BusEnergyJ)
			}
			if r.Steps != solo.Steps {
				t.Fatalf("L%d/%s: %d steps, solo %d — contention must not change the program",
					layer, pol, r.Steps, solo.Steps)
			}
		}
	}
}

// TestContendedRunDeterministic pins bit-exact reproducibility of the
// contended evaluation — the property every golden gate builds on.
func TestContendedRunDeterministic(t *testing.T) {
	char := platform.DefaultCharTable()
	cfg := Config{Layer: 1, Org: javacard.OrgPacked, AddrMap: "far", Arb: "rr"}
	a, err := Run(cfg, churn(), char)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, churn(), char)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || math.Float64bits(a.BusEnergyJ) != math.Float64bits(b.BusEnergyJ) ||
		a.Transactions != b.Transactions || a.Retries != b.Retries {
		t.Fatalf("contended run not deterministic: %+v vs %+v", a, b)
	}
}

// TestContendedFaultedRunCompletes drives the contended system through
// every named fault plan: the masters must retry through the injected
// errors and the run must still drain.
func TestContendedFaultedRunCompletes(t *testing.T) {
	char := platform.DefaultCharTable()
	for _, f := range []string{"flaky", "storm", "grind"} {
		cfg := Config{Layer: 1, Org: javacard.OrgHalf, AddrMap: "near", Fault: f, Arb: "fixed"}
		r, err := Run(cfg, churn(), char)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if f != "storm" && r.Retries == 0 {
			t.Fatalf("%s: faulted contended run recorded no retries", f)
		}
	}
}

// TestFeatureCacheKeyedByArb is the regression test for the screen
// feature cache: two configurations differing only in arbitration
// policy must never share a cache entry — the contended run's feature
// vector carries three masters' traffic, the solo run's only one.
func TestFeatureCacheKeyedByArb(t *testing.T) {
	w := churn()
	p, err := prepare(w)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	solo := Config{Layer: 3, Org: javacard.OrgHalf, AddrMap: "near"}
	cont := solo
	cont.Arb = "rr"

	fSolo, stSolo, err := countRun(ctx, solo, p)
	if err != nil {
		t.Fatal(err)
	}
	fCont, stCont, err := countRun(ctx, cont, p)
	if err != nil {
		t.Fatal(err)
	}
	if stCont.tx <= stSolo.tx {
		t.Fatalf("contended count %d tx, solo %d — cache key collapsed the arb axis",
			stCont.tx, stSolo.tx)
	}
	if fCont == fSolo {
		t.Fatal("contended features identical to solo features")
	}
	// The cache itself must hold two distinct entries.
	featMu.Lock()
	_, okSolo := featCache[featKey{fp: p.fp, org: solo.Org, amap: solo.AddrMap, fault: "", arb: ""}]
	_, okCont := featCache[featKey{fp: p.fp, org: solo.Org, amap: solo.AddrMap, fault: "", arb: "rr"}]
	featMu.Unlock()
	if !okSolo || !okCont {
		t.Fatalf("cache entries solo=%v contended=%v, want both", okSolo, okCont)
	}
	// And a repeat lookup must hit the right one bit-exactly.
	fAgain, stAgain, err := countRun(ctx, cont, p)
	if err != nil {
		t.Fatal(err)
	}
	if fAgain != fCont || stAgain != stCont {
		t.Fatal("cached contended features differ from the computed ones")
	}
}

// TestSweepArbAxis pins the cross-product shape and result order with
// the arbitration axis active.
func TestSweepArbAxis(t *testing.T) {
	results, err := SweepWith(SweepOpts{Arbs: []string{"", "rr"}}, []int{1},
		[]javacard.Organization{javacard.OrgHalf}, []string{"near"},
		[]javacard.Workload{churn()})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results, want 2", len(results))
	}
	if results[0].Arb != "" || results[1].Arb != "rr" {
		t.Fatalf("arb order %q, %q — arbs must be innermost", results[0].Arb, results[1].Arb)
	}
}

// TestArbNoneIsSingleMaster: "none" is the single-master spelling of
// the arbitration axis everywhere, not only on the command line. At
// every layer, metered or not, it runs the single-master system with
// results equal to Arb "" (the config keeps the caller's spelling),
// renders no "/none", and is no multi-master run to a tear plan.
func TestArbNoneIsSingleMaster(t *testing.T) {
	char := platform.DefaultCharTable()
	w := []javacard.Workload{churn()}
	org := []javacard.Organization{javacard.OrgHalf}
	for _, base := range []Config{
		{Org: javacard.OrgHalf, AddrMap: "near"},
		{Org: javacard.OrgHalf, AddrMap: "near", Fault: "flaky"},
		{Org: javacard.OrgHalf, AddrMap: "near", Tear: "tear-mid", Journal: "word-eager"},
	} {
		layers := SweepLayers
		if base.Tear != "" {
			layers = []int{1, 2}
		}
		for _, l := range layers {
			solo, none := base, base
			solo.Layer, none.Layer, none.Arb = l, l, "none"
			if got := none.String(); got != solo.String() {
				t.Fatalf("String() = %q, want %q", got, solo.String())
			}
			want, err := Run(solo, churn(), char)
			if err != nil {
				t.Fatalf("%v: %v", solo, err)
			}
			got, err := Run(none, churn(), char)
			if err != nil {
				t.Fatalf("%v arb none: %v", none, err)
			}
			if got.Arb != "none" {
				t.Fatalf("%v: result arb %q, want the caller's spelling", none, got.Arb)
			}
			got.Arb = ""
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: arb none %+v, want %+v", none, got, want)
			}
			for _, arbs := range [][]string{{""}, {"none"}} {
				res, err := SweepWith(SweepOpts{Workers: 1, Metrics: true, Faults: []string{base.Fault},
					Arbs: arbs, Tears: []string{base.Tear}, Journals: []string{base.Journal}},
					[]int{l}, org, []string{"near"}, w)
				if err != nil || len(res) != 1 {
					t.Fatalf("%v metered arbs %q: %d results, %v", solo, arbs, len(res), err)
				}
				res[0].Arb = ""
				want.Metrics = res[0].Metrics
				if !reflect.DeepEqual(res[0], want) {
					t.Fatalf("%v metered arbs %q: %+v, want %+v", solo, arbs, res[0], want)
				}
				if want.Metrics.Layer != fmt.Sprintf("L%d", l) {
					t.Fatalf("%v metered: registry %q", solo, want.Metrics.Layer)
				}
			}
		}
	}
}
