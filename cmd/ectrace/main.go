// Command ectrace records, replays and converts EC bus transaction
// traces — the paper's §4.1 flow (trace at a lower layer, replay into
// the transaction-level models) plus VCD export for waveform viewers.
//
// Usage:
//
//	ectrace record -o run.trace          # trace the verification corpus on layer 0
//	ectrace replay -layer 2 run.trace    # replay a trace into a TLM layer
//	ectrace vcd -o run.vcd               # dump the layer-0 wires as VCD
//
// record and vcd run layer 0 under the EC protocol checker (package
// checker): a run that breaks the interface rules prints each violation
// to stderr and exits 1, after writing its output file.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/rtlbus"
	"repro/internal/sim"
	"repro/internal/trace"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ectrace:", err)
	os.Exit(1)
}

// watch attaches the EC protocol checker to the layer-0 wires as a
// Post-phase process that sees every cycle. Call the returned function
// after the run: it exits 1 if the checker saw a violation.
func watch(k *sim.Kernel, b *rtlbus.Bus) func() {
	c := checker.New()
	k.At(sim.Post, "checker", func(uint64) { c.Observe(b.Wires()) })
	return func() {
		if report(os.Stderr, c) {
			os.Exit(1)
		}
	}
}

// report writes c's violations to w, one a line, and reports whether
// there were any.
func report(w io.Writer, c *checker.Checker) bool {
	for _, v := range c.Violations() {
		fmt.Fprintln(w, "ectrace: protocol violation:", v)
	}
	return !c.Clean()
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: ectrace record|replay|vcd [flags]")
		os.Exit(2)
	}
	switch os.Args[1] {
	case "record":
		cmdRecord(os.Args[2:])
	case "replay":
		cmdReplay(os.Args[2:])
	case "vcd":
		cmdVCD(os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "ectrace: unknown subcommand %q\n", os.Args[1])
		os.Exit(2)
	}
}

func cmdRecord(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	out := fs.String("o", "ec.trace", "output trace file")
	seed := fs.Uint64("seed", 0, "use a random corpus with this seed instead of the verification corpus")
	n := fs.Int("n", 500, "random corpus size")
	fs.Parse(args)
	if *n < 1 {
		fmt.Fprintf(os.Stderr, "ectrace: record -n %d: the corpus size must be at least 1\n", *n)
		os.Exit(2)
	}

	k := sim.New(0)
	b := rtlbus.New(k, platform.RefMap())
	verify := watch(k, b)
	rec := trace.NewRecorder(b)
	items := core.VerificationCorpus(platform.RefLayout)
	if *seed != 0 {
		items = core.RandomCorpus(*seed, *n, platform.RefLayout)
	}
	m, cycles := core.RunScript(k, rec, items, 10_000_000)
	if !m.Done() {
		fatal(fmt.Errorf("run did not complete"))
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := trace.Save(f, rec.Records()); err != nil {
		fatal(err)
	}
	verify()
	fmt.Printf("recorded %d transactions over %d cycles to %s\n",
		len(rec.Records()), cycles, *out)
}

func cmdReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	layer := fs.Int("layer", 1, "target layer: 1 or 2")
	energy := fs.Bool("energy", true, "attach the layer's energy model")
	fs.Parse(args)
	if *layer != 1 && *layer != 2 {
		fmt.Fprintf(os.Stderr, "ectrace: replay -layer %d: valid layers are 1 and 2\n", *layer)
		os.Exit(2)
	}
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("replay needs a trace file"))
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	recs, err := trace.Load(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	k := sim.New(0)
	bus, total := platform.NewBus(k, platform.Layer(*layer), platform.RefMap(), *energy, platform.DefaultCharTable(), nil)
	m, cycles := core.RunScript(k, bus, trace.Items(recs), 10_000_000)
	if !m.Done() {
		fatal(fmt.Errorf("replay did not complete"))
	}
	fmt.Printf("replayed %d transactions on layer %d: %d cycles, %d errors",
		len(recs), *layer, cycles, m.Errors())
	if *energy {
		fmt.Printf(", %.3f pJ", total()*1e12)
	}
	fmt.Println()
}

func cmdVCD(args []string) {
	fs := flag.NewFlagSet("vcd", flag.ExitOnError)
	out := fs.String("o", "ec.vcd", "output VCD file")
	fs.Parse(args)

	k := sim.New(0)
	b := rtlbus.New(k, platform.RefMap())
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	v := trace.NewVCD(f)
	k.At(sim.Post, "vcd", func(uint64) { v.Observe(b.Wires()) })
	verify := watch(k, b)
	m, cycles := core.RunScript(k, b, core.VerificationCorpus(platform.RefLayout), 10_000_000)
	if !m.Done() {
		fatal(fmt.Errorf("run did not complete"))
	}
	if err := v.Close(); err != nil {
		fatal(err)
	}
	verify()
	fmt.Printf("dumped %d cycles of EC wires to %s\n", cycles, *out)
}
