package metrics

import (
	"math"
	"strings"
	"testing"

	"repro/internal/ecbus"
)

func TestPhaseKindStrings(t *testing.T) {
	want := map[PhaseKind]string{
		PhaseAddress:   "address",
		PhaseReadData:  "read-data",
		PhaseWriteData: "write-data",
		PhaseError:     "error",
		PhaseIdle:      "idle",
		NumPhaseKinds:  "invalid",
		PhaseKind(-1):  "invalid",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("PhaseKind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestHistogramBucketsAndMean(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 4, 1 << 20} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 6 || s.Sum != 10+1<<20 || s.Max != 1<<20 {
		t.Fatalf("snapshot counters wrong: %+v", s)
	}
	// bits.Len64: 0→bucket0, 1→1, 2..3→2, 4..7→3; 1<<20 has Len 21,
	// clamped into the open last bucket.
	if s.Counts[0] != 1 || s.Counts[1] != 1 || s.Counts[2] != 2 || s.Counts[3] != 1 {
		t.Fatalf("bucket layout wrong: %v", s.Counts)
	}
	if s.Counts[HistBuckets-1] != 1 {
		t.Fatalf("huge sample not in open bucket: %v", s.Counts)
	}
	if got, want := s.Mean(), float64(10+1<<20)/6; got != want {
		t.Fatalf("mean %g, want %g", got, want)
	}
	if (HistogramSnapshot{}).Mean() != 0 {
		t.Fatal("empty histogram mean not 0")
	}
}

func TestRegistryCounters(t *testing.T) {
	r := New("TL1")
	r.SetMaster("script")
	r.BindSlaves("fast", "slow")

	tr, err := ecbus.NewSingle(7, ecbus.Read, 0x40, ecbus.W32, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr.IssueCycle, tr.AddrCycle, tr.DataCycle = 10, 12, 15
	r.TxAccepted(ecbus.CatDataRead, 1)
	r.TxRetired(tr, 0, false)
	bad, err := ecbus.NewSingle(8, ecbus.Write, 0x5000, ecbus.W32, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad.IssueCycle, bad.DataCycle = 20, 22
	r.TxAccepted(ecbus.CatWrite, 2)
	r.TxRetired(bad, -1, true)
	r.TxRejected(1)
	r.Retries(3)
	r.Beat()
	r.Beats(4)
	r.Beats(0) // no-op
	r.WaitCycle()
	r.WaitCycles(2)
	r.RecordKernel(100, 40, 5, 7)

	s := r.Snapshot()
	if s.Layer != "TL1" || s.Master != "script" {
		t.Fatalf("labels wrong: %+v", s)
	}
	if s.Accepted != 2 || s.Completed != 1 || s.Errored != 1 || s.Rejected != 1 {
		t.Fatalf("tx counters wrong: %+v", s)
	}
	if s.Retries != 3 || s.Beats != 5 || s.WaitCycles != 3 {
		t.Fatalf("flow counters wrong: %+v", s)
	}
	if s.Cycles != 100 || s.SkippedCycles != 40 || s.IdleSkips != 5 || s.ProcsRun != 7 {
		t.Fatalf("kernel accounting wrong: %+v", s)
	}
	if s.Latency.Count != 2 || s.Latency.Max != 5 {
		t.Fatalf("latency histogram wrong: %+v", s.Latency)
	}
	if s.Occupancy[ecbus.CatDataRead].Max != 1 || s.Occupancy[ecbus.CatWrite].Max != 2 {
		t.Fatalf("occupancy wrong: %+v", s.Occupancy)
	}
	if len(s.Slaves) != 2 || s.Slaves[0].Accesses != 1 || s.Slaves[1].Accesses != 0 ||
		s.Slaves[0].Name != "fast" || s.Slaves[1].Name != "slow" {
		t.Fatalf("slave table wrong: %+v", s.Slaves)
	}
}

func TestEnergyAttributionCarryAndFinalize(t *testing.T) {
	r := New("L0")
	r.BindSlaves("ram")
	r.EnergySample(PhaseAddress, 0, 1.0)   // 1.0 to address/ram
	r.EnergySample(PhaseIdle, -1, 1.5)     // carry: 0.5 still address
	r.EnergySample(PhaseIdle, -1, 1.75)    // carry spent: 0.25 idle
	r.EnergySample(PhaseReadData, 0, 1.75) // zero delta: classification only
	r.Finalize(2.0)                        // residual 0.25 idle/unattributed

	s := r.Snapshot()
	if s.TotalEnergyJ != 2.0 {
		t.Fatalf("total %g, want 2.0", s.TotalEnergyJ)
	}
	if s.EnergyJ[PhaseAddress] != 1.5 {
		t.Fatalf("address bucket %g, want 1.5 (carry rule)", s.EnergyJ[PhaseAddress])
	}
	if s.EnergyJ[PhaseIdle] != 0.5 {
		t.Fatalf("idle bucket %g, want 0.5", s.EnergyJ[PhaseIdle])
	}
	if s.EnergyJ[PhaseReadData] != 0 {
		t.Fatalf("read bucket %g, want 0 (zero delta books nothing)", s.EnergyJ[PhaseReadData])
	}
	if s.Slaves[0].EnergyJ != 1.0 || s.UnattributedJ != 1.0 {
		t.Fatalf("slave split wrong: %+v unattr %g", s.Slaves, s.UnattributedJ)
	}
	var sum float64
	for _, e := range s.EnergyJ {
		sum += e
	}
	if math.Abs(sum-2.0) > 1e-15 {
		t.Fatalf("phase sum %g", sum)
	}
	// Finalize with no residual is a no-op.
	r.Finalize(2.0)
	if got := r.Snapshot().EnergyJ[PhaseIdle]; got != 0.5 {
		t.Fatalf("no-residual Finalize booked energy: %g", got)
	}
}

func TestFaultCounters(t *testing.T) {
	r := New("L2")
	r.FaultReadError()
	r.FaultWriteError()
	r.FaultWriteError()
	r.FaultCorruption()
	r.FaultExtraWait(3)
	r.FaultExtraWait(0) // no-op
	r.FaultStretch(2)
	r.FaultStretch(-1) // no-op
	f := r.Snapshot().Fault
	want := FaultCounters{ReadErrors: 1, WriteErrors: 2, Corruptions: 1, ExtraWaits: 3, Stretched: 2}
	if f != want {
		t.Fatalf("fault counters %+v, want %+v", f, want)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	// Every method must be a no-op, not a panic.
	r.SetMaster("m")
	r.BindSlaves("a")
	r.TxAccepted(0, 1)
	r.TxRejected(1)
	r.TxRetired(nil, 0, false)
	r.Retries(1)
	r.Beat()
	r.Beats(2)
	r.WaitCycle()
	r.WaitCycles(2)
	r.EnergySample(PhaseAddress, 0, 1)
	r.Finalize(1)
	r.RecordKernel(1, 2, 3, 4)
	r.FaultReadError()
	r.FaultWriteError()
	r.FaultCorruption()
	r.FaultExtraWait(1)
	r.FaultStretch(1)
	if s := r.Snapshot(); s.Layer != "" || s.Cycles != 0 || s.TotalEnergyJ != 0 || len(s.Slaves) != 0 {
		t.Fatalf("nil snapshot not zero: %+v", s)
	}
}

func TestTableRendering(t *testing.T) {
	r := New("L1")
	r.SetMaster("bench")
	r.BindSlaves("fast", "slow")
	r.TxAccepted(ecbus.CatDataRead, 1)
	tr, _ := ecbus.NewSingle(1, ecbus.Read, 0, ecbus.W32, 0)
	tr.DataCycle = 4
	r.TxRetired(tr, 0, false)
	r.EnergySample(PhaseReadData, 0, 2.5e-9)
	r.Finalize(3e-9)
	r.RecordKernel(50, 10, 2, 3)
	r.FaultReadError()

	tab := r.Snapshot().Table()
	for _, want := range []string{
		"run report: layer L1", "master bench",
		"cycles 50 (skipped 10 in 2 jumps, procs 3)",
		"accepted 1", "completed 1",
		"read-data", "idle", "per slave:", "fast", "(other)",
		"occupancy max:", "latency mean",
		"faults injected: 1 read err",
		"nJ",
	} {
		if !strings.Contains(tab, want) {
			t.Errorf("table missing %q:\n%s", want, tab)
		}
	}
	// A clean snapshot omits the fault line.
	if tab := (Snapshot{Layer: "x"}).Table(); strings.Contains(tab, "faults injected") {
		t.Error("zero fault counters rendered")
	}
}

func TestFmtJUnits(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		2e-6:    "uJ",
		3.5e-9:  "nJ",
		4.2e-12: "pJ",
	}
	for v, want := range cases {
		if got := fmtJ(v); !strings.Contains(got, want) {
			t.Errorf("fmtJ(%g) = %q, want unit %q", v, got, want)
		}
	}
}

func TestDiffRendering(t *testing.T) {
	a := Snapshot{
		Layer: "clean", Cycles: 100, Completed: 10, TotalEnergyJ: 1e-9,
		Slaves: []SlaveSnapshot{{Name: "ram", EnergyJ: 1e-9}},
	}
	x := a
	x.Layer = "storm"
	x.Cycles = 150
	x.Retries = 4
	x.TotalEnergyJ = 2e-9
	x.Slaves = []SlaveSnapshot{{Name: "ram", EnergyJ: 2e-9}}
	x.Fault.ExtraWaits = 30

	d := Diff(a, x)
	for _, want := range []string{
		"diff clean -> storm",
		"cycles", "+50", "(+50.0%)",
		"retries", "+4",
		"energy", "@ram", "flt-waits",
	} {
		if !strings.Contains(d, want) {
			t.Errorf("diff missing %q:\n%s", want, d)
		}
	}
	if strings.Contains(d, "completed") {
		t.Errorf("unchanged field rendered:\n%s", d)
	}
	// Identical snapshots say so, and empty layer labels get defaults.
	same := Diff(Snapshot{}, Snapshot{})
	if !strings.Contains(same, "diff A -> B") || !strings.Contains(same, "(no differences)") {
		t.Errorf("empty diff rendering wrong:\n%s", same)
	}
}

// TestKahanCompensation: a pathological sum (many tiny values onto a
// large one) must stay exact where naive summation drifts.
func TestKahanCompensation(t *testing.T) {
	var k kahan
	k.add(1e16)
	for i := 0; i < 1000; i++ {
		k.add(1.0)
	}
	if k.sum != 1e16+1000 {
		t.Fatalf("kahan sum %g, want %g", k.sum, 1e16+1000.0)
	}
}

func TestTxRetiredLatencyGuard(t *testing.T) {
	r := New("L2")
	tr, _ := ecbus.NewSingle(1, ecbus.Read, 0, ecbus.W32, 0)
	tr.IssueCycle, tr.DataCycle = 10, 3 // never completed a data phase
	r.TxRetired(tr, -1, true)
	if s := r.Snapshot(); s.Latency.Count != 0 {
		t.Fatalf("underflowing latency observed: %+v", s.Latency)
	}
}
