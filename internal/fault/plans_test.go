package fault_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/tear"
)

// Fault plan lists are parsed by the fault row of the explore axis
// table; these tests pin the fault-specific rules of that row.

// tearPlans is the tear vocabulary without its off value.
var tearPlans = tear.Names[1:]

func TestParseNamesValid(t *testing.T) {
	got, err := explore.FaultAxis.Parse(" none, flaky ,storm,grind ")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if want := []string{"none", "flaky", "storm", "grind"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestParseNamesEmptyElements(t *testing.T) {
	got, err := explore.FaultAxis.Parse(",flaky,,")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(got) != 1 || got[0] != "flaky" {
		t.Fatalf("got %v, want [flaky]", got)
	}
}

// An unknown name must error — never fall back to the clean plan — and
// the message must name every valid plan so the fix is obvious.
func TestParseNamesUnknown(t *testing.T) {
	_, err := explore.FaultAxis.Parse("none,bogus")
	if err == nil {
		t.Fatal("unknown plan name accepted")
	}
	if !strings.Contains(err.Error(), `"bogus"`) {
		t.Fatalf("error does not name the offender: %v", err)
	}
	for _, n := range fault.Names {
		if !strings.Contains(err.Error(), n) {
			t.Fatalf("error does not list valid plan %q: %v", n, err)
		}
	}
	for _, n := range tearPlans {
		if !strings.Contains(err.Error(), n) {
			t.Fatalf("error does not list tear plan %q: %v", n, err)
		}
	}
}

// A tear plan passed on the fault axis is a likely user mistake: the
// rejection must say which axis it belongs to and still spell out both
// vocabularies.
func TestParseNamesTearPlanRedirects(t *testing.T) {
	for _, plan := range tearPlans {
		_, err := explore.FaultAxis.Parse(plan)
		if err == nil {
			t.Fatalf("tear plan %q accepted as a fault plan", plan)
		}
		if !strings.Contains(err.Error(), "-tear axis") {
			t.Fatalf("error does not redirect to the tear axis: %v", err)
		}
		for _, n := range append(append([]string{}, fault.Names...), tearPlans...) {
			if !strings.Contains(err.Error(), n) {
				t.Fatalf("error does not list %q: %v", n, err)
			}
		}
	}
}
