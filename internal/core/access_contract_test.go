package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/mem"
	"repro/internal/rtlbus"
	"repro/internal/sim"
	"repro/internal/tlm1"
	"repro/internal/tlm2"
)

// contractBus is one cycle-level bus model seen through the master-side
// Access contract: the initiator and its ledger's transaction counters.
type contractBus interface {
	core.Initiator
	Counts() core.TxCounts
}

func newContractBus(layer int, k *sim.Kernel, m *ecbus.Map) contractBus {
	switch layer {
	case 0:
		return rtlbus.New(k, m)
	case 1:
		return tlm1.New(k, m)
	default:
		return tlm2.New(k, m)
	}
}

// TestAccessContract pins the admission and retire rules every
// cycle-level bus shares, at each layer:
//   - a structurally invalid request completes at once as an error and
//     is never queued;
//   - an accepted request answers StateRequest and is stamped with the
//     cycle it is presented on;
//   - an accepted, unfinished request polls StateWait with no effect;
//   - a finished request answers StateOK or StateError on every call;
//   - a request whose category is full is refused and counted, and the
//     retire that frees the category wakes a sleeping master the next
//     cycle.
func TestAccessContract(t *testing.T) {
	for layer := 0; layer <= 2; layer++ {
		t.Run(fmt.Sprintf("layer%d", layer), func(t *testing.T) {
			k := sim.New(0)
			b := newContractBus(layer, k, testMap())
			for i := 0; i < 3; i++ {
				k.Step() // the next request is presented on cycle 3
			}
			want := func(step string, c core.TxCounts) {
				t.Helper()
				if got := b.Counts(); got != c {
					t.Fatalf("%s: counts %+v, want %+v", step, got, c)
				}
			}

			bad := &ecbus.Transaction{ID: 1, Kind: ecbus.Read, Addr: lay.Fast + 2, Width: ecbus.W32, Data: make([]uint32, 1)}
			for i := 0; i < 2; i++ {
				if st := b.Access(bad); st != ecbus.StateError || !bad.Done || !bad.Err {
					t.Fatalf("invalid request: state %v done=%v err=%v, want an immediate error", st, bad.Done, bad.Err)
				}
			}
			want("invalid", core.TxCounts{Errors: 1})

			ok := mustSingle(t, 2, ecbus.Read, lay.Slow, 0).Tr
			miss := mustSingle(t, 3, ecbus.Read, 0x8000, 0).Tr // between the two slaves
			for _, tr := range []*ecbus.Transaction{ok, miss} {
				if st := b.Access(tr); st != ecbus.StateRequest || tr.IssueCycle != 3 {
					t.Fatalf("#%d: state %v issue %d, want request on cycle 3", tr.ID, st, tr.IssueCycle)
				}
			}
			if st := b.Access(ok); st != ecbus.StateWait {
				t.Fatalf("in-flight poll: state %v, want wait", st)
			}
			want("accepted", core.TxCounts{Accepted: 2, Errors: 1})

			for i := 0; i < 50 && !(ok.Done && miss.Done); i++ {
				k.Step()
			}
			for i := 0; i < 2; i++ {
				if st := b.Access(ok); st != ecbus.StateOK {
					t.Fatalf("done OK: state %v", st)
				}
				if st := b.Access(miss); st != ecbus.StateError {
					t.Fatalf("done error: state %v", st)
				}
			}
			// A bus that had queued the invalid request, or kept a retired
			// one, would retire it again within these cycles.
			for i := 0; i < 10; i++ {
				k.Step()
			}
			want("retired", core.TxCounts{Accepted: 2, Completed: 1, Errors: 2})
		})
	}
}

// TestAccessContractCategoryFull fills the write category with slow
// writes from a master that never polls them, and has a script master
// present a fifth: it is refused once per cycle until the first write
// retires. The script master sleeps through the refusal and owns none
// of the retiring writes, so only the bus's wake brings it back on the
// cycle after that retire.
func TestAccessContractCategoryFull(t *testing.T) {
	for layer := 0; layer <= 2; layer++ {
		t.Run(fmt.Sprintf("layer%d", layer), func(t *testing.T) {
			k := sim.New(0)
			b := newContractBus(layer, k, ecbus.MustMap(mem.NewRAM("slow", lay.Slow, 0x1000, 0, 20)))
			fill := make([]*ecbus.Transaction, ecbus.MaxOutstanding)
			for i := range fill {
				fill[i] = mustSingle(t, uint64(i+1), ecbus.Write, lay.Slow+uint64(4*i), uint32(i)).Tr
			}
			issued := false
			k.AtHinted(sim.Rising, "filler", func(uint64) {
				if issued {
					return // fire and forget: never polls
				}
				for _, tr := range fill {
					if st := b.Access(tr); st != ecbus.StateRequest {
						t.Errorf("filler #%d: state %v, want request", tr.ID, st)
					}
				}
				issued = true
			}, func(now uint64) uint64 {
				if issued {
					return sim.NoEvent
				}
				return now
			}, func(uint64) {})
			fifth := mustSingle(t, 9, ecbus.Write, lay.Slow+0x40, 9)
			m := core.NewScriptMaster(k, b, []core.Item{fifth})
			if _, ok := k.RunUntil(10_000, m.Done); !ok || m.Errors() != 0 {
				t.Fatalf("run did not finish cleanly (errors %d)", m.Errors())
			}
			first := ^uint64(0)
			for _, tr := range fill {
				first = min(first, tr.DataCycle)
			}
			if fifth.Tr.IssueCycle != first+1 {
				t.Fatalf("fifth write accepted on cycle %d, want %d (the cycle after the first retire)", fifth.Tr.IssueCycle, first+1)
			}
			c := b.Counts()
			if c.Rejected != fifth.Tr.IssueCycle || c.Accepted != ecbus.MaxOutstanding+1 {
				t.Fatalf("counts %+v, want %d accepted and one refusal per cycle before %d", c, ecbus.MaxOutstanding+1, fifth.Tr.IssueCycle)
			}
			if k.SkippedCycles() == 0 {
				t.Fatal("the refused master never slept")
			}
		})
	}
}
