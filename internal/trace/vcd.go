package trace

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/ecbus"
)

// VCDWriter dumps the EC interface wire bundle cycle by cycle as a Value
// Change Dump, viewable in standard waveform tools. Register its Observe
// in the kernel's Post phase over the layer-0 bus wires.
type VCDWriter struct {
	w     *bufio.Writer
	prev  ecbus.Bundle
	first bool
	time  uint64
	err   error
}

// vcdID returns the short identifier code of signal id.
func vcdID(id ecbus.SignalID) string { return string(rune('!' + int(id))) }

// NewVCD writes the VCD header (10 ns timescale per cycle) and returns
// the writer.
func NewVCD(w io.Writer) *VCDWriter {
	v := &VCDWriter{w: bufio.NewWriter(w), first: true}
	fmt.Fprintln(v.w, "$date repro ecbus trace $end")
	fmt.Fprintln(v.w, "$version repro hierarchical bus models $end")
	fmt.Fprintln(v.w, "$timescale 10ns $end")
	fmt.Fprintln(v.w, "$scope module ecbus $end")
	for id := ecbus.SignalID(0); id < ecbus.NumSignals; id++ {
		fmt.Fprintf(v.w, "$var wire %d %s %s $end\n", id.Bits(), vcdID(id), id.String())
	}
	fmt.Fprintln(v.w, "$upscope $end")
	fmt.Fprintln(v.w, "$enddefinitions $end")
	return v
}

// Observe records one cycle's wire values, emitting only changes.
func (v *VCDWriter) Observe(b *ecbus.Bundle) {
	if v.err != nil {
		return
	}
	wroteTime := false
	for id := ecbus.SignalID(0); id < ecbus.NumSignals; id++ {
		if !v.first && v.prev.Get(id) == b.Get(id) {
			continue
		}
		if !wroteTime {
			_, v.err = fmt.Fprintf(v.w, "#%d\n", v.time)
			wroteTime = true
		}
		if id.Bits() == 1 {
			_, v.err = fmt.Fprintf(v.w, "%d%s\n", b.Get(id)&1, vcdID(id))
		} else {
			_, v.err = fmt.Fprintf(v.w, "b%b %s\n", b.Get(id), vcdID(id))
		}
	}
	v.prev = *b
	v.first = false
	v.time++
}

// Close flushes the dump and returns the first write error, if any.
func (v *VCDWriter) Close() error {
	if err := v.w.Flush(); err != nil {
		return err
	}
	return v.err
}

// Profile is a per-cycle power profile (joules per cycle), the raw
// material of the paper's power-analysis motivation: "Estimation of
// power consumption over time is important to reduce the probability of
// a successful power analysis attack."
type Profile struct {
	Samples []float64
}

// Add appends one cycle's energy.
func (p *Profile) Add(e float64) { p.Samples = append(p.Samples, e) }

// Peak returns the largest per-cycle sample, the figure contact-less
// cards must keep under the RF-field supply budget.
func (p *Profile) Peak() float64 {
	var m float64
	for _, v := range p.Samples {
		if v > m {
			m = v
		}
	}
	return m
}

// WriteCSV emits "cycle,energy_pJ" rows.
func (p *Profile) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "cycle,energy_pJ"); err != nil {
		return err
	}
	for i, v := range p.Samples {
		if _, err := fmt.Fprintf(bw, "%d,%.6f\n", i, v*1e12); err != nil {
			return err
		}
	}
	return bw.Flush()
}
