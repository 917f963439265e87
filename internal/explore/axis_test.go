package explore

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/arb"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/tear"
)

type axisCase struct {
	ax   *Axis
	spec string
	want []string // nil: rejected
	errs []string // substrings the rejection must carry
}

// TestAxisParse pins the one axis parser over every row: the
// command-line list form (Parse) and the single-element form (Canon)
// the serving layer applies to request fields and list elements.
func TestAxisParse(t *testing.T) {
	// The per-axis cases (trimming, dropped empty elements, unknown
	// names, the fault row's tear-plan redirect) are pinned next to each
	// axis's package: fault TestParseNames*, tear and journal
	// TestParseNames, TestParseArbs and TestParseTearsAndJournals. This
	// table holds the rules every row shares, and the "none" rule that
	// sets the rows apart.
	cases := []axisCase{
		{FaultAxis, "none,flaky", []string{"none", "flaky"}, nil},
		{ArbAxis, "none,rr", []string{"", "rr"}, nil},
		{TearAxis, "none,tear-mid", []string{"", "tear-mid"}, nil},
		{JournalAxis, "none,word-lazy", []string{"", "word-lazy"}, nil},
	}
	// Every row rejects a list that ends up empty, and an unknown name
	// with its whole vocabulary.
	for _, ax := range Axes {
		for _, spec := range []string{"", ",", " , "} {
			cases = append(cases, axisCase{ax, spec, nil, append([]string{"empty"}, ax.Vocab...)})
		}
		cases = append(cases, axisCase{ax, "zzz", nil, append([]string{`"zzz"`}, ax.Vocab...)})
	}

	for _, c := range cases {
		got, err := c.ax.Parse(c.spec)
		if c.want != nil {
			if err != nil || !reflect.DeepEqual(got, c.want) {
				t.Errorf("%s.Parse(%q) = %q, %v; want %q", c.ax.Name, c.spec, got, err, c.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s.Parse(%q) = %q, want rejection", c.ax.Name, c.spec, got)
			continue
		}
		for _, sub := range c.errs {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("%s.Parse(%q): error %q does not mention %q", c.ax.Name, c.spec, err, sub)
			}
		}
	}

	// The single-element rule (request fields and list elements): it
	// trims, maps "" to the off value, folds "none" per row, and never
	// splits on commas.
	for _, ax := range Axes {
		wantNone := ""
		if ax == FaultAxis {
			wantNone = "none"
		}
		if got, err := ax.Canon("none"); err != nil || got != wantNone {
			t.Errorf("%s.Canon(none) = %q, %v; want %q", ax.Name, got, err, wantNone)
		}
		for _, off := range []string{"", "  "} {
			if got, err := ax.Canon(off); err != nil || got != "" {
				t.Errorf("%s.Canon(%q) = %q, %v; want the off value", ax.Name, off, got, err)
			}
		}
		for _, v := range ax.Vocab[1:] {
			if got, err := ax.Canon(" " + v + " "); err != nil || got != v {
				t.Errorf("%s.Canon(%q) = %q, %v", ax.Name, v, got, err)
			}
			for _, bad := range []string{v + ",", "," + v, "none," + v} {
				if _, err := ax.Canon(bad); err == nil {
					t.Errorf("%s.Canon(%q) accepted a list", ax.Name, bad)
				}
			}
		}
	}
}

// TestAxisVocabResolves: every name a row accepts resolves in the
// package that implements the axis, so the table cannot list a name the
// engine would refuse at run time.
func TestAxisVocabResolves(t *testing.T) {
	resolve := map[*Axis]func(string) bool{
		FaultAxis:   func(n string) bool { _, ok := fault.Named(n); return ok },
		ArbAxis:     func(n string) bool { _, err := arb.ParsePolicy(n); return n == "none" || err == nil },
		TearAxis:    func(n string) bool { _, ok := tear.Named(n); return ok },
		JournalAxis: func(n string) bool { _, ok := journal.Named(n); return ok },
	}
	if len(resolve) != len(Axes) {
		t.Fatalf("%d axes, %d resolvers", len(Axes), len(resolve))
	}
	for _, ax := range Axes {
		if ax.Vocab[0] != "none" {
			t.Errorf("%s vocabulary %v does not start with the off value", ax.Name, ax.Vocab)
		}
		for _, n := range ax.Vocab {
			if !resolve[ax](n) {
				t.Errorf("%s lists %q, which its package cannot resolve", ax.Name, n)
			}
		}
	}
}
