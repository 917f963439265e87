package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/rtlbus"
	"repro/internal/sim"
	"repro/internal/tlm1"
	"repro/internal/tlm2"
)

// stateLog records every Access answer per transaction ID: one per
// presented attempt, since a master reads a held attempt's stamp.
type stateLog struct {
	bus    core.Initiator
	states map[uint64][]ecbus.BusState
}

func (l *stateLog) Access(tr *ecbus.Transaction) ecbus.BusState {
	st := l.bus.Access(tr)
	l.states[tr.ID] = append(l.states[tr.ID], st)
	return st
}

// TestCycle0Requests covers the one case where IssueCycle does not tell
// an accepted request from a fresh one: requests accepted on the rising
// edge of cycle 0, before the bus's first falling edge, are stamped
// IssueCycle 0 like a request never presented. Every request below is
// presented on cycle 0; the first decodes to no slave and errors, and
// with one retry allowed it is re-presented while the other cycle-0
// requests are still in flight. At every layer:
//   - each attempt is presented once and accepted, and the master reads
//     its outcome from the stamp;
//   - the errored request, reset by the retry, is accepted again rather
//     than mistaken for one still queued;
//   - per-transaction timing and energy bits equal the reference path.
func TestCycle0Requests(t *testing.T) {
	const unmapped = 0x8000 // between the fast and the slow slave
	corpus := func() []core.Item {
		return []core.Item{
			mustSingle(t, 1, ecbus.Read, unmapped, 0),
			mustBurst(t, 2, ecbus.Write, lay.Slow+0x00, []uint32{1, 2, 3, 4}),
			mustBurst(t, 3, ecbus.Write, lay.Slow+0x10, []uint32{5, 6, 7, 8}),
			mustBurst(t, 4, ecbus.Read, lay.Slow+0x20, nil),
			mustBurst(t, 5, ecbus.Read, lay.Slow+0x00, nil),
			mustSingle(t, 6, ecbus.Fetch, lay.Fast+0x40, 0),
		}
	}
	retry := core.RetryPolicy{MaxRetries: 1}
	char := characterize(t)
	for layer := 0; layer <= 2; layer++ {
		t.Run(fmt.Sprintf("layer%d", layer), func(t *testing.T) {
			k := sim.New(0)
			var bus core.Initiator
			switch layer {
			case 0:
				bus = rtlbus.New(k, testMap())
			case 1:
				bus = tlm1.New(k, testMap())
			default:
				bus = tlm2.New(k, testMap())
			}
			log := &stateLog{bus: bus, states: map[uint64][]ecbus.BusState{}}
			items := corpus()
			m := core.NewScriptMaster(k, log, items)
			m.Retry = retry
			if _, done := k.RunUntil(10_000, m.Done); !done {
				t.Fatal("run did not finish: a cycle-0 request is stuck")
			}

			var lastData uint64
			for _, it := range items {
				tr := it.Tr
				attempts := checkAttempts(t, tr, log.states[tr.ID])
				want := 1
				if tr.ID == 1 {
					want = 2
				} else {
					lastData = max(lastData, tr.DataCycle)
				}
				if attempts != want {
					t.Errorf("tx %d: %d attempts, want %d", tr.ID, attempts, want)
				}
			}
			errored := items[0].Tr
			if !errored.Err || errored.Retries != 1 || m.Errors() != 1 {
				t.Errorf("unmapped tx: err=%v retries=%d master errors=%d, want true/1/1",
					errored.Err, errored.Retries, m.Errors())
			}
			// The retry must land while cycle-0 requests are in flight,
			// or the queue search this test guards never runs.
			if errored.IssueCycle >= lastData {
				t.Errorf("retry issued on cycle %d, after the cycle-0 requests finished (%d)",
					errored.IssueCycle, lastData)
			}

			checkGolden(t, layer, corpus(), char, testMap, retry)
		})
	}
}

// checkAttempts checks one transaction's Access answers — one
// StateRequest per attempt, since none of these requests is refused and
// a held attempt is never presented again — and that the last attempt
// is stamped done, and returns the attempt count.
func checkAttempts(t *testing.T, tr *ecbus.Transaction, states []ecbus.BusState) int {
	t.Helper()
	for _, st := range states {
		if st != ecbus.StateRequest {
			t.Fatalf("tx %d: an attempt was answered %v, want request: %v", tr.ID, st, states)
		}
	}
	if !tr.Done {
		t.Fatalf("tx %d: last attempt not stamped done", tr.ID)
	}
	return len(states)
}
