// Package tlm3 is transaction level layer 3 of the paper's bus-model
// hierarchy (the layering it adopts from Haverinen et al., §2): untimed
// and event-driven. The layer is an analytic screen. A Counter completes
// every transaction in one Access call, with no kernel time and no
// signal-level simulation, and tallies the traffic's Features. A model
// fitted per organization (internal/calib) maps the feature vector to
// the cycles and energy a timed layer would report, so a design sweep
// can screen its whole space before confirming the survivors at layer
// 1 or 2.
package tlm3

import (
	"repro/internal/ecbus"
	"repro/internal/logic"
)

// Features is the per-phase event-count vector the layer-3 analytic
// estimator feeds into a calibrated linear model (per-event counts ×
// fitted per-event coefficients, following the static-analysis
// estimation line). The counts mirror exactly the activity the timed
// layers price: address phases split by kind and shape, delivered data
// beats split by direction, wait cycles, errored phases, and the
// Hamming activity of the address and data wires.
type Features struct {
	AddrPhases   uint64 // address phases presented (one per attempt)
	FetchPhases  uint64 // subset of AddrPhases that were code fetches
	BurstPhases  uint64 // subset of AddrPhases that were bursts
	ReadBeats    uint64 // delivered read data beats (fetches included)
	WriteBeats   uint64 // delivered write data beats
	WaitCycles   uint64 // address + data wait states, injected waits included
	ErrorPhases  uint64 // attempts that terminated in a bus error
	AddrHamming  uint64 // address-wire toggles between consecutive phases
	ReadHamming  uint64 // read-data-wire toggles between consecutive beats
	WriteHamming uint64 // write-data-wire toggles between consecutive beats
}

// FeatureNames returns the canonical feature vocabulary, index-aligned
// with Vector. Calibration persists this list alongside the fitted
// coefficients so a model is never applied to a reordered vector.
func FeatureNames() []string {
	return []string{
		"addr_phases", "fetch_phases", "burst_phases",
		"read_beats", "write_beats", "wait_cycles", "error_phases",
		"addr_hamming", "read_hamming", "write_hamming",
	}
}

// Vector renders the features in FeatureNames order.
func (f Features) Vector() []float64 {
	return []float64{
		float64(f.AddrPhases), float64(f.FetchPhases), float64(f.BurstPhases),
		float64(f.ReadBeats), float64(f.WriteBeats), float64(f.WaitCycles),
		float64(f.ErrorPhases),
		float64(f.AddrHamming), float64(f.ReadHamming), float64(f.WriteHamming),
	}
}

// Counter is the layer-3 counting bus: a core.Initiator that completes
// every transaction in a single Access call — no kernel time, no
// signal-level simulation — while tallying the Features of the traffic.
//
// Functional equivalence with the timed layers is load-bearing: the
// Counter issues the same ReadWord/WriteWord calls in the same per-word
// order as tlm1/tlm2 (address-phase extent check, one word per beat,
// stop at the first failed beat), so stateful slaves — the pop
// registers of the hardware stack, and fault injectors keyed on
// per-word access ordinals — observe exactly the access stream the
// timed run would produce. A screened configuration therefore counts
// the same transactions, faults and retries its confirmation run will
// replay, only without pricing them per cycle.
type Counter struct {
	m      *ecbus.Map
	f      Features
	cycles uint64

	lastAddr  uint64
	lastRead  uint64
	lastWrite uint64
}

// NewCounter creates a counting bus over the address map.
func NewCounter(m *ecbus.Map) *Counter { return &Counter{m: m} }

// Features returns the accumulated event counts.
func (c *Counter) Features() Features { return c.f }

// Cycles returns the untimed cycle tally: one cycle per address phase
// and per data beat plus every wait state, i.e. the protocol's minimum
// cycle count for the observed traffic. The calibrated model maps this
// tally (via the feature vector) onto a timed layer's true cycle count.
func (c *Counter) Cycles() uint64 { return c.cycles }

// Access completes tr immediately, counting its events. It never
// returns a non-terminal state: masters built for the timed layers
// (which present a transaction until a bus holds it, then read its
// stamp) work unchanged, they just never observe a wait. It keeps no
// guard: presenting a done transaction counts it again, which no master
// does (core.Present).
func (c *Counter) Access(tr *ecbus.Transaction) ecbus.BusState {
	c.f.AddrPhases++
	if tr.Kind == ecbus.Fetch {
		c.f.FetchPhases++
	}
	if tr.Burst {
		c.f.BurstPhases++
	}
	c.f.AddrHamming += uint64(logic.Hamming(c.lastAddr, tr.Addr, ecbus.AddrBits))
	c.lastAddr = tr.Addr

	sel, ok := c.m.Lookup(tr.Kind, tr.Addr, tr.Words()*4)
	if !ok {
		c.cycles++
		c.f.ErrorPhases++
		tr.Done, tr.Err = true, true
		tr.AddrCycle, tr.DataCycle = c.cycles, c.cycles
		return ecbus.StateError
	}
	t := c.m.Target(sel)
	sl, cfg := t.Slave, &t.Config
	// Same sampling point as the timed layers: the injected extra wait
	// is a pure function of (kind, addr), so the value matches whatever
	// cycle the timed run samples it on.
	aw := cfg.AddrWait + t.ExtraWait(tr.Kind, tr.Addr)
	dw := cfg.ReadWait
	if tr.Kind == ecbus.Write {
		dw = cfg.WriteWait
	}
	c.f.WaitCycles += uint64(aw)
	c.cycles += uint64(1 + aw)
	tr.AddrCycle = c.cycles

	w := tr.Width
	if tr.Burst {
		w = ecbus.W32
	}
	for i := range tr.Data {
		c.f.WaitCycles += uint64(dw)
		c.cycles += uint64(1 + dw)
		addr := tr.Addr + uint64(4*i)
		if tr.Kind.IsRead() {
			var v uint32
			v, ok = sl.ReadWord(addr, w)
			if ok {
				tr.Data[i] = v
				c.f.ReadBeats++
				c.f.ReadHamming += uint64(logic.Hamming(c.lastRead, uint64(v), ecbus.DataBits))
				c.lastRead = uint64(v)
			}
		} else {
			ok = sl.WriteWord(addr, tr.Data[i], w)
			if ok {
				c.f.WriteBeats++
				c.f.WriteHamming += uint64(logic.Hamming(c.lastWrite, uint64(tr.Data[i]), ecbus.DataBits))
				c.lastWrite = uint64(tr.Data[i])
			}
		}
		if !ok {
			break
		}
	}
	tr.Done = true
	tr.DataCycle = c.cycles
	if !ok {
		c.f.ErrorPhases++
		tr.Err = true
		return ecbus.StateError
	}
	return ecbus.StateOK
}
