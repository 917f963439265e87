// Command ecbench regenerates the paper's evaluation artifacts from live
// simulations: Table 1 (timing error), Table 2 (energy estimation
// error), Table 3 (simulation performance), Figure 6 (layer-2 energy
// sampling) and the §4.3 Java Card exploration.
//
// Usage:
//
//	ecbench              # everything
//	ecbench -table 2     # one table
//	ecbench -figure 6    # the sampling figure
//	ecbench -explore     # the case-study sweep only
//	ecbench -explore -layer 1,2,3  # sweep a chosen layer list (3 = analytic)
//	ecbench -fault grind # the fault-robustness table only (plans: none, flaky, storm, grind)
//	ecbench -tear tear-early,tear-mid,tear-late  # card-tear session grid (plans × strategies)
//	ecbench -journal word-eager,page-lazy        # restrict the tear grid's strategy axis
//	ecbench -metrics     # per-layer metrics breakdown + clean-vs-fault diff (plan from -fault, default storm)
//	ecbench -batch 64    # serial-vs-batched corpus estimation table at this lane width
//	ecbench -n 200000    # transactions per Table-3 measurement
//	ecbench -workers 1   # serial exploration sweep (default: one per CPU)
//	ecbench -progress    # stream sweep rows to stderr as configs finish
//	ecbench -cpuprofile cpu.prof -memprofile mem.prof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/batch"
	"repro/internal/bench"
	"repro/internal/explore"
	"repro/internal/platform"
)

// vocab renders an axis's vocabulary for flag help.
func vocab(ax *explore.Axis) string { return strings.Join(ax.Vocab, ", ") }

// tearNamesForGrid maps explore's canonical axis spellings (where
// "none" folds to "") back to the grid vocabulary, which spells the
// inactive cell out as "none".
func tearNamesForGrid(names []string) []string {
	out := make([]string, 0, len(names))
	for _, n := range names {
		if n == "" {
			n = "none"
		}
		out = append(out, n)
	}
	return out
}

func main() {
	table := flag.Int("table", 0, "print only table 1, 2 or 3")
	figure := flag.Int("figure", 0, "print only figure 6")
	exploreOnly := flag.Bool("explore", false, "print only the case-study exploration")
	layerSpec := flag.String("layer", "", "comma-separated exploration sweep layers (valid: "+explore.LayerVocab()+"); empty = 1,2")
	faultPlan := flag.String("fault", "", "print only the fault-robustness table for this plan ("+vocab(explore.FaultAxis)+")")
	tearSpec := flag.String("tear", "", "print only the card-tear session grid for these comma-separated plans ("+vocab(explore.TearAxis)+")")
	journalSpec := flag.String("journal", "", "journaling strategies for the card-tear grid ("+vocab(explore.JournalAxis)+"); implies the grid")
	metricsOn := flag.Bool("metrics", false, "print the per-layer metrics report; diffs clean vs the -fault plan (default storm)")
	batchN := flag.Int("batch", 0, "print only the serial-vs-batched corpus table at this lane width (1..64)")
	n := flag.Int("n", 100000, "transactions per Table-3 measurement run")
	workers := flag.Int("workers", 0, "exploration sweep workers; 0 = one per CPU")
	progress := flag.Bool("progress", false, "stream exploration rows to stderr as they complete")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "ecbench: invalid -workers %d (0 = one per CPU, or a positive count)\n", *workers)
		os.Exit(2)
	}
	// An artifact number the paper does not have, or a Table-3 run of no
	// transactions, would print nothing or NaN factors: refuse it now.
	if *table < 0 || *table > 3 {
		fmt.Fprintf(os.Stderr, "ecbench: invalid -table %d (valid tables: 1, 2, 3)\n", *table)
		os.Exit(2)
	}
	if *figure != 0 && *figure != 6 {
		fmt.Fprintf(os.Stderr, "ecbench: invalid -figure %d (valid figures: 6)\n", *figure)
		os.Exit(2)
	}
	if *n < 1 {
		fmt.Fprintf(os.Stderr, "ecbench: invalid -n %d (transactions per Table-3 run, at least 1)\n", *n)
		os.Exit(2)
	}

	// Validate the fault plan before any table runs: a typo must exit
	// non-zero up front with the valid vocabulary, not after minutes of
	// simulation (and never degrade to a clean run). The fault axis also
	// redirects card-tear plan names to the -tear axis.
	if *faultPlan != "" {
		if _, err := explore.FaultAxis.Canon(*faultPlan); err != nil {
			fmt.Fprintln(os.Stderr, "ecbench:", err)
			os.Exit(2)
		}
	}

	// The tear grid's vocabularies get the same up-front treatment.
	var tearPlans, tearStrategies []string
	if *tearSpec != "" {
		names, err := explore.TearAxis.Parse(*tearSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ecbench:", err)
			os.Exit(2)
		}
		tearPlans = tearNamesForGrid(names)
	}
	if *journalSpec != "" {
		names, err := explore.JournalAxis.Parse(*journalSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ecbench:", err)
			os.Exit(2)
		}
		tearStrategies = tearNamesForGrid(names)
	}
	tearGrid := *tearSpec != "" || *journalSpec != ""

	// Same up-front discipline for the exploration layer list: reject
	// an unknown layer before any table spends minutes simulating.
	exploreLayers := []int{1, 2}
	if *layerSpec != "" {
		parsed, err := explore.ParseLayers(*layerSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ecbench:", err)
			os.Exit(2)
		}
		exploreLayers = parsed
	}

	// Same up-front discipline for the lane width: reject nonsense now,
	// cap oversized (but valid) widths at the campaign size with a note.
	if *batchN < 0 || *batchN > batch.MaxWidth {
		fmt.Fprintf(os.Stderr, "ecbench: invalid -batch %d (valid widths: 1..%d)\n",
			*batchN, batch.MaxWidth)
		os.Exit(2)
	}
	if *batchN > bench.BatchCampaignRuns {
		fmt.Fprintf(os.Stderr, "ecbench: capping -batch %d to the campaign size %d\n",
			*batchN, bench.BatchCampaignRuns)
		*batchN = bench.BatchCampaignRuns
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ecbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ecbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ecbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ecbench:", err)
			}
		}()
	}

	all := *table == 0 && *figure == 0 && !*exploreOnly && *faultPlan == "" && !*metricsOn &&
		*batchN == 0 && !tearGrid

	if all || *table == 1 {
		_, text := bench.Table1()
		fmt.Println(text)
	}
	if all || *table == 2 {
		_, text := bench.Table2()
		fmt.Println(text)
	}
	if all || *table == 3 {
		_, text := bench.Table3(*n)
		fmt.Println(text)
	}
	if all || *figure == 6 {
		fmt.Println(bench.Figure6())
	}
	if *faultPlan != "" && !*metricsOn {
		_, text, err := bench.FaultTable(*faultPlan)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ecbench:", err)
			os.Exit(2)
		}
		fmt.Println(text)
	}
	if *metricsOn {
		plan := *faultPlan
		if plan == "" {
			plan = "storm"
		}
		text, err := bench.MetricsReport(plan)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ecbench:", err)
			os.Exit(2)
		}
		fmt.Println(text)
	}
	if *batchN > 0 {
		text, err := bench.BatchTable(*batchN)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ecbench:", err)
			os.Exit(1)
		}
		fmt.Println(text)
	}
	if tearGrid {
		text, err := bench.TearTable(platform.Layer1, tearPlans, tearStrategies)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ecbench:", err)
			os.Exit(1)
		}
		fmt.Println(text)
	}
	if all || *exploreOnly {
		opts := explore.SweepOpts{Workers: *workers}
		if *progress {
			opts.OnResult = func(r explore.Result, err error) {
				if err != nil {
					fmt.Fprintf(os.Stderr, "ecbench: %v\n", err)
					return
				}
				fmt.Fprint(os.Stderr, explore.Row(r))
			}
		}
		text, err := bench.ExplorationLayers(opts, exploreLayers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ecbench:", err)
			os.Exit(1)
		}
		fmt.Println(text)
	}
}
