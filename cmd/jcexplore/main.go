// Command jcexplore runs the paper's §4.3 case study: HW/SW interface
// exploration for the Java Card VM's hardware operand stack, sweeping
// SFR organization, address map and bus abstraction layer.
//
// Usage:
//
//	jcexplore                 # full sweep, table + Pareto frontier
//	jcexplore -layer 2        # only the timed layer (fastest)
//	jcexplore -layer 1,2,3    # include the analytic layer-3 rows
//	jcexplore -fidelity confirm  # screen analytically, prune, confirm survivors
//	jcexplore -fidelity screen   # analytic predictions only (microseconds/config)
//	jcexplore -workload wallet
//	jcexplore -faults none,flaky  # add fault-plan sweep axis
//	jcexplore -arb none,rr    # add arbitration-policy sweep axis (multi-master)
//	jcexplore -tear none,tear-mid -journal none,word-eager  # card-tear × journaling axes
//	jcexplore -batch 64 -layer 1  # batched corpus campaign instead of the sweep
//	jcexplore -report         # per-configuration metrics breakdown after the tables
//	jcexplore -workers 1      # serial sweep (default: one worker per CPU)
//	jcexplore -progress       # stream rows to stderr as configs finish
//	jcexplore -cpuprofile cpu.prof -memprofile mem.prof
//	jcexplore -remote http://127.0.0.1:8372  # run the sweep on an ecserved instance
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/batch"
	"repro/internal/bench"
	"repro/internal/explore"
	"repro/internal/javacard"
	"repro/internal/metrics"
	"repro/internal/serve"
)

func main() {
	layerSpec := flag.String("layer", "", "comma-separated bus layers to sweep (valid: "+explore.LayerVocab()+"); empty = 1,2. With -batch: the single batched layer (0 or 1)")
	fidelity := flag.String("fidelity", "", "sweep fidelity: exhaustive (default), screen (analytic predictions only) or confirm (screen, prune, confirm survivors exactly)")
	workload := flag.String("workload", "", "restrict to one workload (arith-loop, stack-churn, wallet)")
	axisSpecs := make([]*string, len(explore.Axes))
	for i, ax := range explore.Axes {
		axisSpecs[i] = flag.String(ax.Flag, "", "comma-separated "+ax.Noun+" list as an extra sweep axis ("+strings.Join(ax.Vocab, ", ")+")")
	}
	batchN := flag.Int("batch", 0, "run the batched corpus campaign at this lane width (1..64) instead of the sweep")
	report := flag.Bool("report", false, "collect per-configuration metrics and print the run-report breakdown")
	workers := flag.Int("workers", 0, "parallel sweep workers; 0 = one per CPU")
	progress := flag.Bool("progress", false, "stream per-configuration rows to stderr as they complete")
	remote := flag.String("remote", "", "comma-separated base URLs of ecserved instances; runs the sweep there instead of in-process, failing over between peers")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jcexplore:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "jcexplore:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "jcexplore:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "jcexplore:", err)
			}
		}()
	}

	// Validate the worker count, the layer list and the fidelity before
	// any pool work: a typo exits 2 with the vocabulary, mirroring the
	// fault-plan validation discipline.
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "jcexplore: invalid -workers %d (0 = one per CPU, or a positive count)\n", *workers)
		os.Exit(2)
	}
	layers := []int{1, 2}
	if *layerSpec != "" && *batchN == 0 {
		parsed, err := explore.ParseLayers(*layerSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jcexplore:", err)
			os.Exit(2)
		}
		layers = parsed
	}
	fid, err := explore.ParseFidelity(*fidelity)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jcexplore:", err)
		os.Exit(2)
	}
	workloads := javacard.Workloads()
	if *workload != "" {
		w, ok := javacard.WorkloadByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "jcexplore: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		workloads = []javacard.Workload{w}
	}

	var axes explore.SweepOpts
	for i, ax := range explore.Axes {
		if *axisSpecs[i] == "" {
			continue
		}
		names, err := ax.Parse(*axisSpecs[i])
		if err != nil {
			fmt.Fprintln(os.Stderr, "jcexplore:", err)
			os.Exit(2)
		}
		*ax.List(&axes) = names
	}
	// Refuse impossible axis combinations (tear/journal off a timed
	// single-master bus) up front, through the rule the serve endpoints
	// apply.
	if err := explore.ValidAxes(axes, layers); err != nil {
		fmt.Fprintln(os.Stderr, "jcexplore:", err)
		os.Exit(2)
	}

	if *batchN != 0 {
		// Batched campaign mode: the bit-parallel engine models layers 0
		// and 1; -layer here names the batched layer directly (default:
		// the TL1 model, jcexplore's home layer).
		if *batchN < 0 || *batchN > batch.MaxWidth {
			fmt.Fprintf(os.Stderr, "jcexplore: invalid -batch %d (valid widths: 1..%d)\n",
				*batchN, batch.MaxWidth)
			os.Exit(2)
		}
		blayer := 1
		if *layerSpec != "" {
			n, err := strconv.Atoi(*layerSpec)
			if err != nil || (n != 0 && n != 1) {
				fmt.Fprintf(os.Stderr, "jcexplore: -batch models layers 0 and 1, not %q\n", *layerSpec)
				os.Exit(2)
			}
			blayer = n
		}
		width := *batchN
		if width > bench.BatchCampaignRuns {
			fmt.Fprintf(os.Stderr, "jcexplore: capping -batch %d to the campaign size %d\n",
				width, bench.BatchCampaignRuns)
			width = bench.BatchCampaignRuns
		}
		text, err := bench.CampaignTable(blayer, width, axes.Faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jcexplore:", err)
			os.Exit(1)
		}
		fmt.Println(text)
		return
	}

	if *remote != "" {
		if *report || *progress {
			fmt.Fprintln(os.Stderr, "jcexplore: -report and -progress are local-only; ignored with -remote")
		}
		if err := remoteSweep(*remote, fid, layers, workloads, axes); err != nil {
			fmt.Fprintln(os.Stderr, "jcexplore:", err)
			os.Exit(1)
		}
		return
	}

	opts := axes
	opts.Workers, opts.Metrics = *workers, *report
	if *progress {
		opts.OnResult = func(r explore.Result, err error) {
			if err != nil {
				fmt.Fprintf(os.Stderr, "jcexplore: %v\n", err)
				return
			}
			fmt.Fprint(os.Stderr, explore.Row(r))
		}
	}

	if fid != explore.FidelityExhaustive {
		runMultiFidelity(fid, opts, layers, workloads, *report)
		return
	}

	results, err := explore.SweepWith(opts, layers, javacard.Organizations, explore.AddrMaps, workloads)
	if err != nil {
		// Partial-failure semantics: report every failed configuration
		// but still print whatever completed.
		fmt.Fprintln(os.Stderr, "jcexplore:", err)
		if len(results) == 0 {
			os.Exit(1)
		}
	}
	printTables(results, *report)
}

// runMultiFidelity runs the screen or confirm fidelity and prints the
// screened/pruned/confirmed accounting before the tables — pruning is
// never silent.
func runMultiFidelity(fid explore.Fidelity, opts explore.SweepOpts, layers []int, workloads []javacard.Workload, report bool) {
	mfOpts := explore.MultiFidelityOpts{
		SweepOpts:   opts,
		SkipConfirm: fid == explore.FidelityScreen,
	}
	if report {
		mfOpts.Registry = metrics.New("sweep")
	}
	mf, err := explore.SweepMultiFidelity(mfOpts, layers, javacard.Organizations, explore.AddrMaps, workloads)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jcexplore:", err)
		if len(mf.Confirmed) == 0 && len(mf.Screened) == 0 {
			os.Exit(1)
		}
	}
	fmt.Printf("multi-fidelity (%s): screened %d  pruned %d  confirmed %d  screen %.3fms  confirm %.3fms\n",
		fid, mf.ScreenedConfigs, mf.PrunedConfigs, mf.ConfirmedConfigs,
		float64(mf.ScreenTime.Microseconds())/1e3, float64(mf.ConfirmTime.Microseconds())/1e3)
	printMargins(layers, func(l int) (float64, float64) { return mf.EpsEnergy[l], mf.EpsCycles[l] })
	fmt.Println()
	if fid == explore.FidelityScreen {
		printPredictions(mf.Screened)
		return
	}
	printTables(mf.Confirmed, false)
	if report && mfOpts.Registry != nil {
		fmt.Println()
		fmt.Println("Sweep metrics:")
		snap := mfOpts.Registry.Snapshot()
		fmt.Print(snap.Table())
	}
}

// printMargins prints each layer's pruning margins, the energy and
// cycle ε the screen prunes against, in percent.
func printMargins(layers []int, eps func(layer int) (energy, cycles float64)) {
	for _, l := range layers {
		e, c := eps(l)
		fmt.Printf("  layer %d pruning margin: energy ±%.2f%%  cycles ±%.2f%%\n", l, e*100, c*100)
	}
}

// printPredictions prints screening predictions in the exploration
// table's shape, with the pruning decision as the final column.
func printPredictions(preds []explore.Prediction) {
	fmt.Println("Analytic predictions (screen fidelity; energies are model estimates, not measurements):")
	fmt.Printf("%-12s %-22s %12s %14s %6s\n",
		"workload", "config", "cycles~", "energy[pJ]~", "kept")
	for _, p := range preds {
		kept := "prune"
		if p.Kept {
			kept = "keep"
		}
		fmt.Printf("%-12s %-22s %12.0f %14.1f %6s\n",
			p.Workload, p.Config.String(), p.Cycles, p.EnergyJ*1e12, kept)
	}
}

func printTables(results []explore.Result, report bool) {
	fmt.Println("Java Card VM HW/SW interface exploration (paper 4.3)")
	fmt.Println()
	fmt.Print(explore.Table(results))
	fmt.Println()
	fmt.Println("Pareto frontier (cycles vs bus energy):")
	fmt.Print(explore.Table(explore.Pareto(results)))
	if report {
		fmt.Println()
		fmt.Println("Per-configuration metrics:")
		for _, r := range results {
			if r.Metrics == nil {
				continue
			}
			fmt.Printf("\n%s/%s\n%s", r.Workload, r.Config.String(), r.Metrics.Table())
		}
	}
}

// remoteSweep runs the sweep on an ecserved deployment — a single
// instance or a comma-separated peer list — and prints its rows as a
// local run of the same fidelity prints its results. With multiple
// peers the first healthy one takes the request and the rest are
// failover targets; any cluster node answers identically
// (content-addressed routing makes the entry node irrelevant), so
// failover never changes the result. Energies come from the exact
// IEEE-754 bit pattern in the stream, so the printed tables are
// identical to a local run of the same axes.
func remoteSweep(base string, fid explore.Fidelity, layers []int, workloads []javacard.Workload, axes explore.SweepOpts) error {
	req := serve.SweepRequest{Layers: layers, Faults: axes.Faults, Arbs: axes.Arbs,
		Tears: axes.Tears, Journals: axes.Journals, Fidelity: string(fid)}
	for _, w := range workloads {
		req.Workloads = append(req.Workloads, w.Name)
	}
	var peers []string
	for _, p := range strings.Split(base, ",") {
		if p = strings.TrimSpace(strings.TrimRight(p, "/")); p != "" {
			peers = append(peers, p)
		}
	}
	if len(peers) == 0 {
		return fmt.Errorf("no remote peer URLs in %q", base)
	}
	rows, trailer, err := sweepAnyPeer(peers, req)
	if err != nil {
		return err
	}
	for _, msg := range trailer.Errors {
		fmt.Fprintln(os.Stderr, "jcexplore: remote:", msg)
	}
	if trailer.Fidelity != "" {
		fmt.Printf("multi-fidelity (%s): screened %d  pruned %d  confirmed %d\n",
			trailer.Fidelity, trailer.Screened, trailer.Pruned, trailer.Confirmed)
		printMargins(layers, func(l int) (float64, float64) {
			k := strconv.Itoa(l) // the trailer keys layers by decimal string
			return trailer.EpsEnergy[k], trailer.EpsCycles[k]
		})
		fmt.Println()
	}
	results, preds, err := serve.SweepOutcomes(rows)
	if err != nil {
		return err
	}
	if fid == explore.FidelityScreen {
		printPredictions(preds)
	} else {
		printTables(results, false)
	}
	return nil
}

// healthy reports whether a peer's /healthz answers 200.
func healthy(base string) bool {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// sweepAnyPeer orders the peers healthy-first and returns the first
// successful sweep, failing over on request errors.
func sweepAnyPeer(peers []string, req serve.SweepRequest) ([]serve.SweepRow, serve.SweepTrailer, error) {
	ordered := make([]string, 0, len(peers))
	var down []string
	for _, p := range peers {
		if len(peers) == 1 || healthy(p) {
			ordered = append(ordered, p)
		} else {
			down = append(down, p)
		}
	}
	ordered = append(ordered, down...) // last resort: maybe healthz lied
	var lastErr error
	for i, p := range ordered {
		if i > 0 {
			fmt.Fprintf(os.Stderr, "jcexplore: failing over to %s (%v)\n", p, lastErr)
		}
		client := &serve.Client{BaseURL: p}
		rows, trailer, err := client.Sweep(context.Background(), req)
		if err == nil {
			return rows, trailer, nil
		}
		lastErr = err
	}
	return nil, serve.SweepTrailer{}, fmt.Errorf("all %d remote peer(s) failed; last: %w", len(ordered), lastErr)
}
