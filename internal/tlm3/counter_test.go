package tlm3

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tlm1"
)

// busMap is the two-slave test map: a zero-wait RAM and a wait-stated
// one.
func busMap() *ecbus.Map {
	return ecbus.MustMap(
		mem.NewRAM("ram", 0, 0x2000, 0, 0),
		mem.NewRAM("slow", 0x10000, 0x1000, 1, 2),
	)
}

// script builds a mixed traffic pattern: fetches, unaligned narrow
// accesses, word singles and bursts, against both the fast and the
// wait-stated slave.
func script(t *testing.T) []core.Item {
	t.Helper()
	var items []core.Item
	id := uint64(0)
	single := func(k ecbus.Kind, addr uint64, w ecbus.Width, data uint32) {
		id++
		tr, err := ecbus.NewSingle(id, k, addr, w, data)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, core.Item{Tr: tr})
	}
	burst := func(k ecbus.Kind, addr uint64, words []uint32) {
		id++
		tr, err := ecbus.NewBurst(id, k, addr, words)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, core.Item{Tr: tr})
	}
	for i := 0; i < 24; i++ {
		base := uint64(0x100 + 4*i)
		single(ecbus.Write, base, ecbus.W32, uint32(0xA5A5_0000+i))
		single(ecbus.Fetch, uint64(0x40+i), ecbus.W8, 0)
		single(ecbus.Read, base, ecbus.W32, 0)
		if i%3 == 0 {
			burst(ecbus.Write, 0x10000+uint64(16*(i/3)), []uint32{1, 2, 3, uint32(i)})
			burst(ecbus.Read, 0x10000+uint64(16*(i/3)), nil)
		}
		if i%5 == 0 {
			single(ecbus.Write, 0x10800+uint64(i), ecbus.W8, uint32(i))
			single(ecbus.Read, 0x10802, ecbus.W16, 0)
		}
	}
	return items
}

func cloneItems(items []core.Item) []core.Item {
	out := make([]core.Item, len(items))
	for i, it := range items {
		out[i] = core.Item{Tr: it.Tr.Clone(), NotBefore: it.NotBefore}
	}
	return out
}

// driveResult is the outcome of a sequential drive: completions in
// program order plus the master-side counters.
type driveResult struct {
	completed []*ecbus.Transaction
	errors    int
	retries   int
}

// drive issues each transaction to completion before the next through
// core.BlockingMaster, the blocking master the exploration harness's
// stack adapter, code fetcher and journal bus run on, so screening is
// checked against the traffic shape the sweep actually produces.
func drive(t *testing.T, k *sim.Kernel, bus core.Initiator, items []core.Item, retry core.RetryPolicy) driveResult {
	t.Helper()
	var out driveResult
	m := core.NewBlockingMaster(k, bus, retry)
	for _, it := range items {
		switch m.Run(it.Tr) {
		case ecbus.StateError:
			out.errors++
		case ecbus.StateWait:
			t.Fatalf("tx %d never completed", it.Tr.ID)
		}
		out.completed = append(out.completed, it.Tr)
	}
	out.retries = int(m.Retries)
	return out
}

// TestCounterMatchesTimedTraffic pins the functional equivalence of the
// counting bus: the same script produces the same per-transaction
// outcomes and read payloads as the cycle-accurate layer-1 bus, and the
// counted beats/waits agree with the slave configuration.
func TestCounterMatchesTimedTraffic(t *testing.T) {
	itemsTimed := script(t)
	itemsCount := cloneItems(itemsTimed)

	k := sim.New(0)
	timed := drive(t, k, tlm1.New(k, busMap()), itemsTimed, core.RetryPolicy{})

	kc := sim.New(0)
	c := NewCounter(busMap())
	counted := drive(t, kc, c, itemsCount, core.RetryPolicy{})

	tc, cc := timed.completed, counted.completed
	if len(tc) != len(cc) {
		t.Fatalf("completed %d timed vs %d counted", len(tc), len(cc))
	}
	var beats uint64
	for i := range tc {
		a, x := tc[i], cc[i]
		if a.Err != x.Err {
			t.Fatalf("tx %d: err %v timed vs %v counted", a.ID, a.Err, x.Err)
		}
		if a.Kind.IsRead() && !a.Err {
			for j := range a.Data {
				if a.Data[j] != x.Data[j] {
					t.Fatalf("tx %d beat %d: data %#x timed vs %#x counted", a.ID, j, a.Data[j], x.Data[j])
				}
			}
		}
		if !a.Err {
			beats += uint64(a.Words())
		}
	}

	f := c.Features()
	if f.AddrPhases != uint64(len(cc)) {
		t.Errorf("AddrPhases = %d, want %d", f.AddrPhases, len(cc))
	}
	if got := f.ReadBeats + f.WriteBeats; got != beats {
		t.Errorf("beats = %d, want %d", got, beats)
	}
	if f.ErrorPhases != 0 {
		t.Errorf("clean script counted %d error phases", f.ErrorPhases)
	}
	if f.WaitCycles == 0 {
		t.Error("wait-stated slave traffic counted zero wait cycles")
	}
	if f.AddrHamming == 0 || f.ReadHamming == 0 || f.WriteHamming == 0 {
		t.Errorf("zero Hamming activity: %+v", f)
	}
	if c.Cycles() == 0 {
		t.Error("untimed cycle tally is zero")
	}
}

// TestCounterFaultStreamEquivalence pins the property that makes
// screening faulted configurations sound: a fault injector keyed on
// per-word access ordinals sees the same access stream from the
// counting bus as from the timed bus, so both runs inject the same
// faults and retire the same retry counts.
func TestCounterFaultStreamEquivalence(t *testing.T) {
	plan, ok := fault.Named("flaky")
	if !ok {
		t.Fatal("flaky plan missing")
	}
	wrap := func() *ecbus.Map {
		return ecbus.MustMap(
			fault.Wrap(mem.NewRAM("ram", 0, 0x2000, 0, 0), plan),
			fault.Wrap(mem.NewRAM("slow", 0x10000, 0x1000, 1, 2), plan),
		)
	}
	retry := core.RetryPolicy{MaxRetries: 16, Backoff: 1}

	itemsTimed := script(t)
	itemsCount := cloneItems(itemsTimed)

	k := sim.New(0)
	timed := drive(t, k, tlm1.New(k, wrap()), itemsTimed, retry)

	kc := sim.New(0)
	c := NewCounter(wrap())
	counted := drive(t, kc, c, itemsCount, retry)

	if timed.errors != counted.errors {
		t.Errorf("errors: %d timed vs %d counted", timed.errors, counted.errors)
	}
	if timed.retries != counted.retries {
		t.Errorf("retries: %d timed vs %d counted", timed.retries, counted.retries)
	}
	tc, cc := timed.completed, counted.completed
	if len(tc) != len(cc) {
		t.Fatalf("completed %d timed vs %d counted", len(tc), len(cc))
	}
	for i := range tc {
		if tc[i].Err != cc[i].Err || tc[i].Retries != cc[i].Retries {
			t.Fatalf("tx %d: outcome (err %v retries %d) timed vs (err %v retries %d) counted",
				tc[i].ID, tc[i].Err, tc[i].Retries, cc[i].Err, cc[i].Retries)
		}
		if tc[i].Kind.IsRead() && !tc[i].Err {
			for j := range tc[i].Data {
				if tc[i].Data[j] != cc[i].Data[j] {
					t.Fatalf("tx %d beat %d: faulted data %#x timed vs %#x counted",
						tc[i].ID, j, tc[i].Data[j], cc[i].Data[j])
				}
			}
		}
	}
	if f := c.Features(); f.ErrorPhases == 0 {
		t.Error("flaky plan produced no counted error phases")
	}
}

// TestCounterDecodeMiss: a decode miss errors the transaction instead
// of panicking, and counts an error phase.
func TestCounterDecodeMiss(t *testing.T) {
	c := NewCounter(busMap())
	tr, err := ecbus.NewSingle(1, ecbus.Read, 0x9000_0000, ecbus.W32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Access(tr); st != ecbus.StateError {
		t.Fatalf("decode miss returned %v", st)
	}
	if !tr.Err || !tr.Done {
		t.Error("decode miss did not mark the transaction errored")
	}
	if c.Features().ErrorPhases != 1 {
		t.Errorf("ErrorPhases = %d, want 1", c.Features().ErrorPhases)
	}
}

// TestFeatureVectorAligned: Vector and FeatureNames stay index-aligned.
func TestFeatureVectorAligned(t *testing.T) {
	f := Features{
		AddrPhases: 1, FetchPhases: 2, BurstPhases: 3,
		ReadBeats: 4, WriteBeats: 5, WaitCycles: 6, ErrorPhases: 7,
		AddrHamming: 8, ReadHamming: 9, WriteHamming: 10,
	}
	names, v := FeatureNames(), f.Vector()
	if len(names) != len(v) {
		t.Fatalf("%d names vs %d vector entries", len(names), len(v))
	}
	for i, want := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		if v[i] != want {
			t.Errorf("%s = %g, want %g", names[i], v[i], want)
		}
	}
	// Every name unique.
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
	_ = fmt.Sprintf("%+v", f)
}
