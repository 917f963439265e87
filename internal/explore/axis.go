package explore

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/tear"
)

// Axis is one named-plan axis of the design space. Each axis is
// declared once, as a row of Axes, and the row drives everything the
// axis touches: the command-line flag, the serving layer's request
// field and content-key label, the vocabulary check, the "none" fold,
// and the Config field and SweepOpts list the sweep crosses.
type Axis struct {
	Name  string   // Config/ConfigRequest/SweepRow spelling and content-key label; the sweep label is Name+"s"
	Flag  string   // jcexplore flag
	Noun  string   // what one value names, for messages and flag help
	Vocab []string // valid names, the off value "none" first

	Field func(*Config) *string      // the axis's Config field
	List  func(*SweepOpts) *[]string // the axis's SweepOpts list

	fold   bool                    // "none" canonicalizes to ""; fault keeps its spelling
	reject func(name string) error // the error for a name outside Vocab; nil = generic
}

// The four axes, in the canonical cross-product order (Configs): fault
// plans, arbitration policies, tear plans, journal strategies.
var (
	FaultAxis = &Axis{Name: "fault", Flag: "faults", Noun: "fault plan", Vocab: fault.Names,
		Field: func(c *Config) *string { return &c.Fault }, List: func(o *SweepOpts) *[]string { return &o.Faults },
		reject: rejectFault}
	ArbAxis = &Axis{Name: "arb", Flag: "arb", Noun: "arbitration policy", Vocab: append([]string{"none"}, ArbPolicies...),
		Field: func(c *Config) *string { return &c.Arb }, List: func(o *SweepOpts) *[]string { return &o.Arbs },
		fold: true}
	TearAxis = &Axis{Name: "tear", Flag: "tear", Noun: "tear plan", Vocab: tear.Names,
		Field: func(c *Config) *string { return &c.Tear }, List: func(o *SweepOpts) *[]string { return &o.Tears },
		fold: true}
	JournalAxis = &Axis{Name: "journal", Flag: "journal", Noun: "journal strategy", Vocab: journal.Names,
		Field: func(c *Config) *string { return &c.Journal }, List: func(o *SweepOpts) *[]string { return &o.Journals },
		fold: true}

	Axes = []*Axis{FaultAxis, ArbAxis, TearAxis, JournalAxis}
)

// Canon resolves one axis value — a Config field, a request field or
// one element of a request list: spaces are trimmed, "" is the off
// value, "none" folds to "" where the axis folds it, and any other name
// must be in the vocabulary.
func (a *Axis) Canon(v string) (string, error) {
	v = strings.TrimSpace(v)
	if a.fold {
		v = off(v)
	}
	switch {
	case v == "":
		return "", nil
	case slices.Contains(a.Vocab, v):
		return v, nil
	case a.reject != nil:
		return "", a.reject(v)
	}
	return "", fmt.Errorf("explore: unknown %s %q (valid: %s)", a.Noun, v, strings.Join(a.Vocab, ", "))
}

// Parse parses a command-line axis list ("none,rr"): it splits on
// commas, drops empty elements, resolves the rest through Canon, and
// rejects a list that ends up empty.
func (a *Axis) Parse(spec string) ([]string, error) {
	var out []string
	for _, part := range strings.Split(spec, ",") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		v, err := a.Canon(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("explore: empty %s list (valid: %s)", a.Noun, strings.Join(a.Vocab, ", "))
	}
	return out, nil
}

// rejectFault explains a name outside the fault vocabulary. A tear plan
// is a likely slip — power loss is not a bus fault — so it is pointed
// at its own axis.
func rejectFault(name string) error {
	faults, tears := strings.Join(fault.Names, ", "), strings.Join(TearAxis.Vocab[1:], ", ")
	if slices.Contains(TearAxis.Vocab[1:], name) {
		return fmt.Errorf("fault: %q is a card-tear plan, not a fault plan — pass it via the -%s axis (fault plans: %s; tear plans: %s)",
			name, TearAxis.Flag, faults, tears)
	}
	return fmt.Errorf("fault: unknown plan %q (valid plans: %s; tear plans travel on the -%s axis: %s)",
		name, faults, TearAxis.Flag, tears)
}

// cross calls fn with *c crossed with every value of the axes from
// Axes[i] on, in table order, the last axis varying fastest; it sets
// those fields of *c in place. An empty opts list contributes the
// axis's off value alone. It stops at the first error fn returns.
func cross(opts *SweepOpts, c *Config, i int, fn func(Config) error) error {
	if i == len(Axes) {
		return fn(*c)
	}
	vals := *Axes[i].List(opts)
	if len(vals) == 0 {
		vals = []string{""}
	}
	for _, v := range vals {
		*Axes[i].Field(c) = v
		if err := cross(opts, c, i+1, fn); err != nil {
			return err
		}
	}
	return nil
}
