package tear_test

import (
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/tear"
)

// Tear plan lists are parsed by the tear row of the explore axis table.
func TestParseNames(t *testing.T) {
	got, err := explore.TearAxis.Parse(" tear-early , ,tear-late ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "tear-early" || got[1] != "tear-late" {
		t.Fatalf("got %v", got)
	}
	_, err = explore.TearAxis.Parse("tear-early,bogus")
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Fatalf("want unknown-plan error, got %v", err)
	}
	for _, n := range tear.Names {
		if !strings.Contains(err.Error(), n) {
			t.Fatalf("error does not list %q: %v", n, err)
		}
	}
}
