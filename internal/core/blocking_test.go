package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/sim"
)

// scriptedBus follows a script of bus states, the last one repeating:
// each Access answers the next state, and while the bus holds a request
// each executed cycle takes the next state, stamping the transaction
// when the state is terminal. It records the cycle of every Access.
type scriptedBus struct {
	k      *sim.Kernel
	script []ecbus.BusState
	next   int
	held   *ecbus.Transaction
	calls  []uint64
}

func newScriptedBus(k *sim.Kernel, script ...ecbus.BusState) *scriptedBus {
	b := &scriptedBus{k: k, script: script}
	k.At(sim.Falling, "scripted-bus", func(uint64) {
		if b.held != nil && b.advance(b.held).Done() {
			b.held = nil
		}
	})
	return b
}

// advance takes the next scripted state for tr, stamping it on a
// terminal state.
func (b *scriptedBus) advance(tr *ecbus.Transaction) ecbus.BusState {
	st := b.script[min(b.next, len(b.script)-1)]
	b.next++
	if st.Done() {
		tr.Done, tr.Err = true, st == ecbus.StateError
	}
	return st
}

func (b *scriptedBus) Access(tr *ecbus.Transaction) ecbus.BusState {
	b.calls = append(b.calls, b.k.Cycle())
	st := b.advance(tr)
	if st == ecbus.StateRequest {
		tr.Accepted, b.held = true, tr
	}
	return st
}

// TestBlockingMaster pins the blocking master's wait against a scripted
// bus: the presentation cycles, the stamp read the cycle after the bus
// writes it, the retry re-presentation Backoff+1 steps after an error,
// the used-up budget, and the step limit on a wedged bus.
func TestBlockingMaster(t *testing.T) {
	const (
		ok   = ecbus.StateOK
		bad  = ecbus.StateError
		wait = ecbus.StateWait
		req  = ecbus.StateRequest
	)
	cases := []struct {
		name        string
		retry       core.RetryPolicy
		script      []ecbus.BusState
		want        ecbus.BusState
		wantCalls   []uint64 // Access cycles, starting at cycle 10
		wantEnd     uint64   // cycle Run returns on
		wantRetries uint64
	}{
		{name: "ok on the spot", script: []ecbus.BusState{ok},
			want: ok, wantCalls: []uint64{10}, wantEnd: 10},
		{name: "held until stamped", script: []ecbus.BusState{req, wait, wait, ok},
			want: ok, wantCalls: []uint64{10}, wantEnd: 13},
		{name: "refused until held", script: []ecbus.BusState{wait, wait, req, ok},
			want: ok, wantCalls: []uint64{10, 11, 12}, wantEnd: 13},
		{name: "error re-presented after Backoff+1 steps",
			retry:  core.RetryPolicy{MaxRetries: 2, Backoff: 3},
			script: []ecbus.BusState{req, bad, req, ok},
			want:   ok, wantCalls: []uint64{10, 15}, wantEnd: 16, wantRetries: 1},
		{name: "zero policy: first error final", retry: core.RetryPolicy{Backoff: 5},
			script: []ecbus.BusState{bad}, want: bad, wantCalls: []uint64{10}, wantEnd: 10},
		{name: "budget used up", retry: core.RetryPolicy{MaxRetries: 2, Backoff: 1},
			script: []ecbus.BusState{bad}, want: bad, wantCalls: []uint64{10, 12, 14}, wantEnd: 14, wantRetries: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.New(0)
			bus := newScriptedBus(k, tc.script...)
			k.RunUntil(10, func() bool { return false })
			m := core.NewBlockingMaster(k, bus, tc.retry)
			tr, err := m.Single(ecbus.Write, 0x40, ecbus.W32, 0xA5)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Run(tr); got != tc.want {
				t.Fatalf("Run = %v, want %v", got, tc.want)
			}
			if len(bus.calls) != len(tc.wantCalls) {
				t.Fatalf("Access at cycles %v, want %v", bus.calls, tc.wantCalls)
			}
			for i := range bus.calls {
				if bus.calls[i] != tc.wantCalls[i] {
					t.Fatalf("Access at cycles %v, want %v", bus.calls, tc.wantCalls)
				}
			}
			if k.Cycle() != tc.wantEnd {
				t.Fatalf("returned at cycle %d, want %d: no step after completion", k.Cycle(), tc.wantEnd)
			}
			if m.Retries != tc.wantRetries || uint64(tr.Retries) != tc.wantRetries {
				t.Fatalf("Retries = %d (tr %d), want %d", m.Retries, tr.Retries, tc.wantRetries)
			}
			if m.Transactions != 1 || tr.ID != 1 || tr.Data[0] != 0xA5 {
				t.Fatalf("Transactions %d, ID %d, data %#x", m.Transactions, tr.ID, tr.Data[0])
			}
		})
	}

	t.Run("wedged bus gives up at the step limit", func(t *testing.T) {
		k := sim.New(0)
		bus := newScriptedBus(k, req, wait)
		m := core.NewBlockingMaster(k, bus, core.RetryPolicy{MaxRetries: 4})
		tr, err := m.Single(ecbus.Read, 0x40, ecbus.W32, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Run(tr); got != wait {
			t.Fatalf("Run = %v, want %v", got, wait)
		}
		if len(bus.calls) != 1 || k.Cycle() != core.StepLimit {
			t.Fatalf("%d presentations, gave up at cycle %d; want 1 and %d",
				len(bus.calls), k.Cycle(), core.StepLimit)
		}
		if tr2, _ := m.Single(ecbus.Read, 0x44, ecbus.W32, 0); tr2 != tr || tr2.ID != 2 {
			t.Fatalf("pooled transaction not reused with the next ID: %p vs %p, ID %d", tr2, tr, tr2.ID)
		}
	})
}
