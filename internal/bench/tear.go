package bench

import (
	"fmt"
	"strings"

	"repro/internal/journal"
	"repro/internal/platform"
	"repro/internal/tear"
)

// TearRow is one cell of the journaling-strategy × tear-plan grid: a
// complete APDU session torn by the plan and recovered under the
// strategy, with the energy split between the live session and the
// power-up replay.
type TearRow struct {
	Plan      string
	Strategy  string
	Torn      bool
	Commands  int     // terminal commands fully answered before the cut
	Commits   int     // journal frames durable at the cut
	Frames    int     // frames the replay found valid
	Discarded int     // torn tail frames discarded
	SessionJ  float64 // energy up to the cut
	RecoveryJ float64 // power-up replay energy (exact meter delta)
	TotalJ    float64
	Cycles    uint64
}

// TearGrid runs the tear-aware session workload for every strategy ×
// plan pair at the given layer. A torn cell's committed prefix is
// verified against the device inside tear.RunSession — a row coming
// back at all means no committed word was lost.
func TearGrid(layer platform.Layer, planNames, strategyNames []string) ([]TearRow, error) {
	var rows []TearRow
	for _, sn := range strategyNames {
		strat, ok := journal.Named(sn)
		if !ok {
			return nil, fmt.Errorf("bench: unknown journal strategy %q (have %v)", sn, journal.Names)
		}
		for _, pn := range planNames {
			plan, ok := tear.Named(pn)
			if !ok {
				return nil, fmt.Errorf("bench: unknown tear plan %q (have %v)", pn, tear.Names)
			}
			res, err := tear.RunSession(layer, plan, strat)
			if err != nil {
				return nil, fmt.Errorf("bench: %s/%s: %w", pn, sn, err)
			}
			rows = append(rows, TearRow{
				Plan:      pn,
				Strategy:  sn,
				Torn:      res.Torn,
				Commands:  len(res.Responses),
				Commits:   len(res.CommitLog),
				Frames:    res.Recovery.Frames,
				Discarded: res.Recovery.Discarded,
				SessionJ:  res.SessionJ,
				RecoveryJ: res.RecoveryJ,
				TotalJ:    res.TotalJ,
				Cycles:    res.Cycles,
			})
		}
	}
	return rows, nil
}

// TearTable renders the grid — the EXPERIMENTS.md journaling ×
// tear-budget table.
func TearTable(layer platform.Layer, planNames, strategyNames []string) (string, error) {
	if len(planNames) == 0 {
		planNames = tear.Names
	}
	if len(strategyNames) == 0 {
		strategyNames = journal.Names
	}
	rows, err := TearGrid(layer, planNames, strategyNames)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Card-tear sessions: journaling strategy x tear plan, %v\n", layer)
	fmt.Fprintf(&sb, "%-11s %-11s %5s %5s %8s %7s %5s %13s %13s %12s\n",
		"Strategy", "Plan", "torn", "cmds", "commits", "frames", "disc", "session[pJ]", "recovery[pJ]", "cycles")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-11s %-11s %5v %5d %8d %7d %5d %13.1f %13.1f %12d\n",
			r.Strategy, r.Plan, r.Torn, r.Commands, r.Commits, r.Frames, r.Discarded,
			r.SessionJ*1e12, r.RecoveryJ*1e12, r.Cycles)
	}
	return sb.String(), nil
}
