package core_test

import (
	"fmt"
	"testing"

	"repro/internal/arb"
	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/metrics"
	"repro/internal/rtlbus"
	"repro/internal/sim"
	"repro/internal/tlm1"
	"repro/internal/tlm2"
	"repro/internal/trace"
)

// A script master refused by a full bus sleeps until a transaction
// completes. These tests pin the two edges of that rule: the stall ends
// on the cycle after any completion on the bus, even one no master
// harvests, and an arbitrated port, whose refusals are not stable,
// never opts in.

// stallBus builds an exact bus of the given layer without an energy
// model, so no strobe left high pins the cycle after a completion.
func stallBus(layer int, k *sim.Kernel, m *ecbus.Map) (core.Refuser, func() string) {
	switch layer {
	case 0:
		b := rtlbus.New(k, m)
		return b, func() string { return fmt.Sprintf("%+v", b.Counts()) }
	case 1:
		b := tlm1.New(k, m)
		return b, func() string { return fmt.Sprintf("%+v", b.Counts()) }
	default:
		b := tlm2.New(k, m)
		return b, func() string { return fmt.Sprintf("%+v", b.Counts()) }
	}
}

// nvmWrites returns n single-word writes to the NVM region.
func nvmWrites(firstID uint64, n int) []*ecbus.Transaction {
	out := make([]*ecbus.Transaction, n)
	for i := range out {
		tr, err := ecbus.NewSingle(firstID+uint64(i), ecbus.Write, lay.Slow+uint64(16*i), ecbus.W32, uint32(i))
		if err != nil {
			panic(err)
		}
		out[i] = tr
	}
	return out
}

// TestRefusedMasterWakesOnForeignCompletion fills the write category
// from an initiator that never polls again, so no master's harvest
// wakes the kernel when one of its writes completes. The script
// master's write is refused until then; its retry must still land on
// the cycle after that completion, exactly as on the reference path.
func TestRefusedMasterWakesOnForeignCompletion(t *testing.T) {
	for layer := 0; layer <= 2; layer++ {
		t.Run(fmt.Sprintf("layer%d", layer), func(t *testing.T) {
			type result struct {
				timing, stats string
				skipped       uint64
			}
			run := func() result {
				k := sim.New(0)
				bus, stats := stallBus(layer, k, nvmMap())
				fill := nvmWrites(100, ecbus.MaxOutstanding)
				k.AtHinted(sim.Rising, "filler", func(c uint64) {
					if c == 0 {
						for _, tr := range fill {
							if st := bus.Access(tr); st != ecbus.StateRequest {
								t.Fatalf("filler write %d: %v, want request", tr.ID, st)
							}
						}
					}
				}, func(now uint64) uint64 {
					if now == 0 {
						return now
					}
					return sim.NoEvent
				}, nil)
				own := nvmWrites(1, 2)
				m := core.NewScriptMaster(k, bus, []core.Item{{Tr: own[0], NotBefore: 1}, {Tr: own[1], NotBefore: 1}})
				k.RunUntil(100_000, func() bool { return m.Done() && fill[len(fill)-1].Done })
				if !m.Done() {
					t.Fatal("run incomplete")
				}
				var r result
				for _, tr := range append(fill, own...) {
					r.timing += fmt.Sprintf("%d:%d/%d/%d ", tr.ID, tr.IssueCycle, tr.AddrCycle, tr.DataCycle)
				}
				r.stats, r.skipped = stats(), k.SkippedCycles()
				return r
			}
			var ref result
			withReference(t, func() { ref = run() })
			opt := run()
			if ref.timing != opt.timing {
				t.Errorf("timing diverged:\nref %s\nopt %s", ref.timing, opt.timing)
			}
			if ref.stats != opt.stats {
				t.Errorf("bus stats diverged:\nref %s\nopt %s", ref.stats, opt.stats)
			}
			if opt.skipped == 0 {
				t.Error("the optimized run skipped no cycle: the refused master never slept")
			}
		})
	}
}

// TestArbitratedMasterNotStalled drives a script master through an
// arbitrated port onto a bus whose write category is full. A refused
// grant queues the request in the mux, and the grant arrives without a
// completion, so the port is no Refuser and every refused cycle still
// executes: the mux's grant waits and the bus's rejections equal the
// reference path's. The master sits behind a Recorder, whose Unwrap
// leads to the port and must not lead past it.
func TestArbitratedMasterNotStalled(t *testing.T) {
	if _, ok := any(&arb.Port{}).(core.Refuser); ok {
		t.Fatal("arb.Port implements core.Refuser; its refusals are not stable")
	}
	type result struct {
		timing, stats string
		grantWaits    uint64
	}
	run := func() result {
		k := sim.New(0)
		mux := arb.NewMux(k, arb.RoundRobin, 1)
		b := tlm1.New(k, nvmMap())
		mux.Bind(b)
		var items []core.Item
		for _, tr := range nvmWrites(1, 3*ecbus.MaxOutstanding) {
			items = append(items, core.Item{Tr: tr})
		}
		m := core.NewScriptMaster(k, trace.NewRecorder(mux.Port(0)), items)
		k.RunUntil(100_000, func() bool { return m.Done() && mux.Drained() })
		if !m.Done() {
			t.Fatal("run incomplete")
		}
		var r result
		for _, tr := range m.Completed() {
			r.timing += fmt.Sprintf("%d:%d/%d/%d ", tr.ID, tr.IssueCycle, tr.AddrCycle, tr.DataCycle)
		}
		reg := metrics.New("TL1")
		mux.ReportMetrics(reg)
		r.stats, r.grantWaits = fmt.Sprintf("%+v", b.Counts()), reg.Snapshot().Arb.GrantWaits
		return r
	}
	var ref result
	withReference(t, func() { ref = run() })
	opt := run()
	if ref.grantWaits == 0 {
		t.Fatal("the bus never refused a grant; the test exercises nothing")
	}
	if ref.timing != opt.timing {
		t.Errorf("timing diverged:\nref %s\nopt %s", ref.timing, opt.timing)
	}
	if ref.stats != opt.stats {
		t.Errorf("bus stats diverged:\nref %s\nopt %s", ref.stats, opt.stats)
	}
	if ref.grantWaits != opt.grantWaits {
		t.Errorf("grant waits: ref %d, opt %d; refused cycles were skipped", ref.grantWaits, opt.grantWaits)
	}
}
