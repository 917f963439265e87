package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/rtlbus"
	"repro/internal/sim"
	"repro/internal/tlm1"
	"repro/internal/tlm2"
)

// The RetryPolicy budget contract, driven through scripted fault
// windows so the error schedule is exact at every layer. The zero
// policy is the abort path: the first bus error retires the
// transaction as failed with no re-issue — not one retry, not a
// backoff stall — and a transient fault that would clear on the second
// attempt still aborts.
func TestRetryPolicyBudget(t *testing.T) {
	const target = 0x40
	persistentWrite := fault.Plan{Scripted: []fault.ScriptedFault{
		{Op: fault.OpWrite, Addr: target, After: 0, Count: 0},
	}}
	transientWrite := fault.Plan{Scripted: []fault.ScriptedFault{
		{Op: fault.OpWrite, Addr: target, After: 0, Count: 2},
	}}
	transientRead := fault.Plan{Scripted: []fault.ScriptedFault{
		{Op: fault.OpRead, Addr: target, After: 0, Count: 1},
	}}

	cases := []struct {
		name        string
		policy      core.RetryPolicy
		plan        fault.Plan
		write       bool
		wantErr     bool
		wantRetries int
	}{
		{
			name:   "zero budget aborts on first error",
			policy: core.RetryPolicy{}, plan: persistentWrite, write: true,
			wantErr: true, wantRetries: 0,
		},
		{
			name:   "zero budget ignores backoff",
			policy: core.RetryPolicy{MaxRetries: 0, Backoff: 7}, plan: persistentWrite, write: true,
			wantErr: true, wantRetries: 0,
		},
		{
			name:   "zero budget aborts even on transient fault",
			policy: core.RetryPolicy{}, plan: transientWrite, write: true,
			wantErr: true, wantRetries: 0,
		},
		{
			name:   "budget exhausted by persistent fault",
			policy: core.RetryPolicy{MaxRetries: 2, Backoff: 1}, plan: persistentWrite, write: true,
			wantErr: true, wantRetries: 2,
		},
		{
			name:   "transient write recovered within budget",
			policy: core.RetryPolicy{MaxRetries: 4, Backoff: 1}, plan: transientWrite, write: true,
			wantErr: false, wantRetries: 2,
		},
		{
			name:   "transient read recovered within budget",
			policy: core.RetryPolicy{MaxRetries: 4, Backoff: 1}, plan: transientRead, write: false,
			wantErr: false, wantRetries: 1,
		},
		{
			name:   "zero budget read abort",
			policy: core.RetryPolicy{}, plan: transientRead, write: false,
			wantErr: true, wantRetries: 0,
		},
	}
	// The rule itself, as every master applies it through Reissue.
	reissue := []struct {
		name    string
		policy  core.RetryPolicy
		retries int32 // re-issues the transaction has already had
		wantOK  bool
		wantAt  uint64
	}{
		{name: "zero policy: first error final", policy: core.RetryPolicy{}},
		{name: "zero budget ignores backoff", policy: core.RetryPolicy{Backoff: 7}},
		{name: "budget left, no backoff", policy: core.RetryPolicy{MaxRetries: 1}, wantOK: true, wantAt: 101},
		{name: "budget left, backoff", policy: core.RetryPolicy{MaxRetries: 4, Backoff: 3}, retries: 3, wantOK: true, wantAt: 104},
		{name: "budget used up", policy: core.RetryPolicy{MaxRetries: 4, Backoff: 3}, retries: 4},
	}
	for _, tc := range reissue {
		t.Run("Reissue/"+tc.name, func(t *testing.T) {
			tr, err := ecbus.NewSingle(1, ecbus.Read, target, ecbus.W32, 0)
			if err != nil {
				t.Fatal(err)
			}
			tr.Retries, tr.Done, tr.Err, tr.Data[0] = tc.retries, true, true, 0xBAD
			at, ok := tc.policy.Reissue(tr, 100)
			if ok != tc.wantOK || at != tc.wantAt {
				t.Fatalf("Reissue = (%d, %v), want (%d, %v)", at, ok, tc.wantAt, tc.wantOK)
			}
			if !ok {
				// A final error leaves the transaction as the bus completed it.
				if tr.Retries != tc.retries || !tr.Done || !tr.Err || tr.Data[0] != 0xBAD {
					t.Fatalf("final error touched the transaction: %+v", tr)
				}
				return
			}
			if tr.Retries != tc.retries+1 || tr.Done || tr.Err || tr.Data[0] != 0 {
				t.Fatalf("re-issued transaction not reset: %+v", tr)
			}
		})
	}

	for _, tc := range cases {
		for layer := 0; layer <= 2; layer++ {
			t.Run(fmt.Sprintf("%s/layer%d", tc.name, layer), func(t *testing.T) {
				k := sim.New(0)
				mp := ecbus.MustMap(fault.Wrap(mem.NewRAM("ram", 0, 0x1000, 0, 0), tc.plan))
				var bus core.Initiator
				switch layer {
				case 0:
					bus = rtlbus.New(k, mp)
				case 1:
					bus = tlm1.New(k, mp)
				default:
					bus = tlm2.New(k, mp)
				}
				kind := ecbus.Read
				if tc.write {
					kind = ecbus.Write
				}
				tr, err := ecbus.NewSingle(1, kind, target, ecbus.W32, 0xA5)
				if err != nil {
					t.Fatal(err)
				}
				m := core.NewScriptMaster(k, bus, []core.Item{{Tr: tr}})
				m.Retry = tc.policy
				k.RunUntil(100_000, m.Done)
				if !m.Done() {
					t.Fatal("run did not complete")
				}
				done := m.Completed()
				if len(done) != 1 {
					t.Fatalf("completed %d transactions, want 1", len(done))
				}
				got := done[0]
				if got.Err != tc.wantErr {
					t.Fatalf("Err = %v, want %v (retries %d)", got.Err, tc.wantErr, got.Retries)
				}
				if int(got.Retries) != tc.wantRetries {
					t.Fatalf("Retries = %d, want %d", got.Retries, tc.wantRetries)
				}
				if m.TotalRetries() != tc.wantRetries {
					t.Fatalf("TotalRetries = %d, want %d", m.TotalRetries(), tc.wantRetries)
				}
				wantErrs := 0
				if tc.wantErr {
					wantErrs = 1
				}
				if m.Errors() != wantErrs {
					t.Fatalf("Errors = %d, want %d", m.Errors(), wantErrs)
				}
			})
		}
	}
}
