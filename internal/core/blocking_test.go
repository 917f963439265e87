package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/sim"
)

// scriptedBus answers each Access with the next state of its script
// (the last one repeating) and records the cycle of every call.
type scriptedBus struct {
	k      *sim.Kernel
	script []ecbus.BusState
	calls  []uint64
}

func (b *scriptedBus) Access(tr *ecbus.Transaction) ecbus.BusState {
	b.calls = append(b.calls, b.k.Cycle())
	st := b.script[min(len(b.calls), len(b.script))-1]
	if st.Done() {
		tr.Done, tr.Err = true, st == ecbus.StateError
	}
	return st
}

// TestBlockingMaster pins the blocking master's wait against a scripted
// bus: the poll cycles, the retry re-presentation Backoff+1 steps after
// an error, the used-up budget, and the step limit on a wedged bus.
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
		wantRetries uint64
	}{
		{name: "ok on the first poll", script: []ecbus.BusState{ok},
			want: ok, wantCalls: []uint64{10}},
		{name: "polled every cycle", script: []ecbus.BusState{req, wait, wait, ok},
			want: ok, wantCalls: []uint64{10, 11, 12, 13}},
		{name: "error re-presented after Backoff+1 steps",
			retry:  core.RetryPolicy{MaxRetries: 2, Backoff: 3},
			script: []ecbus.BusState{req, bad, req, ok},
			want:   ok, wantCalls: []uint64{10, 11, 15, 16}, wantRetries: 1},
		{name: "zero policy: first error final", retry: core.RetryPolicy{Backoff: 5},
			script: []ecbus.BusState{bad}, want: bad, wantCalls: []uint64{10}},
		{name: "budget used up", retry: core.RetryPolicy{MaxRetries: 2, Backoff: 1},
			script: []ecbus.BusState{bad}, want: bad, wantCalls: []uint64{10, 12, 14}, wantRetries: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.New(0)
			k.RunUntil(10, func() bool { return false })
			bus := &scriptedBus{k: k, script: tc.script}
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
			last := tc.wantCalls[len(tc.wantCalls)-1]
			if k.Cycle() != last {
				t.Fatalf("returned at cycle %d, want %d: no step after completion", k.Cycle(), last)
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
		bus := &scriptedBus{k: k, script: []ecbus.BusState{req, wait}}
		m := core.NewBlockingMaster(k, bus, core.RetryPolicy{MaxRetries: 4})
		tr, err := m.Single(ecbus.Read, 0x40, ecbus.W32, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Run(tr); got != wait {
			t.Fatalf("Run = %v, want %v", got, wait)
		}
		if len(bus.calls) != core.StepLimit || k.Cycle() != core.StepLimit {
			t.Fatalf("%d polls, gave up at cycle %d; want %d and %d",
				len(bus.calls), k.Cycle(), core.StepLimit, core.StepLimit)
		}
		if tr2, _ := m.Single(ecbus.Read, 0x44, ecbus.W32, 0); tr2 != tr || tr2.ID != 2 {
			t.Fatalf("pooled transaction not reused with the next ID: %p vs %p, ID %d", tr2, tr, tr2.ID)
		}
	})
}
