// Command ecsim assembles a MIPS program, runs it on the full smart-card
// platform at a chosen bus abstraction layer, and reports timing, energy
// and peripheral activity.
//
// Usage:
//
//	ecsim -layer 1 -energy prog.s      # run an assembly file
//	ecsim -demo                        # run the built-in demo program
//	ecsim -layer 0 -energy -demo       # gate-level reference run
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/cpu"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
)

// demo exercises the UART, TRNG, timer and crypto coprocessor.
const demo = `
	lui  $s0, 0x000F          # UART
	li   $t0, 1
	sw   $t0, 0xC($s0)
	li   $t0, 0x52            # 'R'
	sw   $t0, 0x0($s0)

	lui  $s1, 0x000F          # TRNG
	ori  $s1, $s1, 0x0300
	lw   $s2, 0($s1)

	lui  $s4, 0x000F          # crypto
	ori  $s4, $s4, 0x0500
	sw   $s2, 0x00($s4)       # key0 = random
	sw   $zero, 0x04($s4)
	li   $t0, 0x77
	sw   $t0, 0x08($s4)
	sw   $zero, 0x0C($s4)
	li   $t0, 1
	sw   $t0, 0x10($s4)
poll:
	lw   $t1, 0x14($s4)
	andi $t1, $t1, 2
	beq  $t1, $zero, poll
	nop
	lw   $v0, 0x18($s4)
	break
`

func main() {
	layer := flag.Int("layer", 1, "bus abstraction layer: 0 (gate), 1 (cycle accurate), 2 (timed)")
	energy := flag.Bool("energy", true, "attach the layer's energy model")
	icache := flag.Bool("icache", true, "enable the instruction cache")
	maxCycles := flag.Uint64("max-cycles", 10_000_000, "cycle budget")
	useDemo := flag.Bool("demo", false, "run the built-in demo program")
	profileOut := flag.String("profile", "", "write a per-cycle energy profile CSV (layer 1 only)")
	vcdOut := flag.String("vcd", "", "write the EC wires as VCD (layer 0 only)")
	listing := flag.Bool("disasm", false, "print the program disassembly before running")
	flag.Parse()
	if *layer < 0 || *layer > 2 {
		fmt.Fprintf(os.Stderr, "ecsim: -layer %d: valid layers are 0, 1 and 2\n", *layer)
		os.Exit(2)
	}

	src := demo
	if !*useDemo {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: ecsim [-layer N] [-energy] <prog.s> | -demo")
			os.Exit(2)
		}
		b, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "ecsim:", err)
			os.Exit(1)
		}
		src = string(b)
	}

	words, err := cpu.Assemble(platform.ROMBase, src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecsim: assemble:", err)
		os.Exit(1)
	}

	if *listing {
		fmt.Print(cpu.DisassembleAll(platform.ROMBase, words))
		fmt.Println()
	}

	p := platform.New(platform.Config{
		Layer:  platform.Layer(*layer),
		Energy: *energy,
		ICache: *icache,
	})
	if err := p.LoadProgram(words, *icache); err != nil {
		fmt.Fprintln(os.Stderr, "ecsim:", err)
		os.Exit(1)
	}

	var profile trace.Profile
	if *profileOut != "" {
		if p.TL1Power() == nil {
			fmt.Fprintln(os.Stderr, "ecsim: -profile needs -layer 1 with energy")
			os.Exit(2)
		}
		p.Kernel.At(sim.Post, "profile", func(uint64) {
			profile.Add(p.TL1Power().EnergyLastCycle())
		})
	}
	var vcd *trace.VCDWriter
	if *vcdOut != "" {
		wires := p.Wires()
		if wires == nil {
			fmt.Fprintln(os.Stderr, "ecsim: -vcd needs -layer 0")
			os.Exit(2)
		}
		f, err := os.Create(*vcdOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ecsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		vcd = trace.NewVCD(f)
		p.Kernel.At(sim.Post, "vcd", func(uint64) { vcd.Observe(wires) })
	}

	cycles, halted := p.Run(*maxCycles)

	fmt.Printf("layer:          %v\n", p.Layer)
	fmt.Printf("cycles:         %d (halted: %v)\n", cycles, halted)
	if err := p.CPU.Fault(); err != nil {
		fmt.Printf("FAULT:          %v\n", err)
	}
	st := p.CPU.Stats()
	fmt.Printf("instructions:   %d (%.2f cycles/instr)\n", st.Instructions,
		float64(cycles)/float64(max(st.Instructions, 1)))
	fmt.Printf("loads/stores:   %d/%d, bus fetches: %d\n", st.Loads, st.Stores, st.Fetches)
	if hits, misses := p.CPU.ICacheStats(); hits+misses > 0 {
		fmt.Printf("icache:         %d hits, %d misses\n", hits, misses)
	}
	fmt.Printf("$v0:            %#x\n", p.CPU.Reg(2))
	if len(p.UART.TxLog) > 0 {
		fmt.Printf("uart tx:        %q\n", p.UART.TxLog)
	}
	if *energy {
		fmt.Printf("bus energy:     %.3f pJ\n", p.BusEnergy()*1e12)
		fmt.Printf("periph energy:  %.3f pJ\n", p.PeripheralEnergy()*1e12)
		fmt.Printf("crypto engine:  %.3f pJ\n", p.Crypto.TraceEnergy()*1e12)
		fmt.Printf("total:          %.3f pJ\n", p.TotalEnergy()*1e12)
		bd := p.EnergyBreakdown()
		names := make([]string, 0, len(bd))
		for n := range bd {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if bd[n] > 0 {
				fmt.Printf("  %-10s %10.3f pJ\n", n, bd[n]*1e12)
			}
		}
	}

	if *profileOut != "" {
		f, err := os.Create(*profileOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ecsim:", err)
			os.Exit(1)
		}
		if err := profile.WriteCSV(f); err == nil {
			err = f.Close()
			fmt.Printf("profile:        %d samples, peak %.3f pJ/cycle -> %s\n",
				len(profile.Samples), profile.Peak()*1e12, *profileOut)
		} else {
			f.Close()
			fmt.Fprintln(os.Stderr, "ecsim:", err)
		}
	}
	if vcd != nil {
		if err := vcd.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "ecsim: vcd:", err)
		} else {
			fmt.Printf("vcd:            %s\n", *vcdOut)
		}
	}
}

func max(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
