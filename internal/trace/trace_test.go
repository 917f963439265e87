package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/mem"
	"repro/internal/rtlbus"
	"repro/internal/sim"
	"repro/internal/tlm1"
)

var lay = core.Layout{Fast: 0, Slow: 0x10000}

func busMap() *ecbus.Map {
	return ecbus.MustMap(
		mem.NewRAM("fast", lay.Fast, 0x1000, 0, 0),
		mem.NewRAM("slow", lay.Slow, 0x1000, 1, 2),
	)
}

// record runs the verification corpus on layer 0 through a Recorder.
func record(t *testing.T) []Record {
	t.Helper()
	k := sim.New(0)
	b := rtlbus.New(k, busMap())
	rec := NewRecorder(b)
	m, _ := core.RunScript(k, rec, core.VerificationCorpus(lay), 1_000_000)
	if !m.Done() {
		t.Fatal("recording run did not finish")
	}
	return rec.Records()
}

func TestRecorderCapturesAllTransactions(t *testing.T) {
	recs := record(t)
	want := len(core.VerificationCorpus(lay))
	if len(recs) != want {
		t.Fatalf("recorded %d transactions, want %d", len(recs), want)
	}
	// Issue cycles must be non-decreasing (acceptance order).
	for i := 1; i < len(recs); i++ {
		if recs[i].Issue < recs[i-1].Issue {
			t.Fatalf("issue cycles not monotone at %d", i)
		}
	}
	// Writes carry data, reads do not.
	for _, r := range recs {
		if r.Kind == ecbus.Write && len(r.Data) == 0 {
			t.Fatal("write record without data")
		}
		if r.Kind != ecbus.Write && len(r.Data) != 0 {
			t.Fatal("read record with data")
		}
	}
}

// A pooled master reuses one transaction object: each reset use is a
// new transaction and is recorded, while a retried attempt is not.
func TestRecorderPooledAndRetried(t *testing.T) {
	k := sim.New(0)
	rec := NewRecorder(tlm1.New(k, busMap()))
	m := core.NewBlockingMaster(k, rec, core.RetryPolicy{MaxRetries: 2})
	for i := 0; i < 3; i++ {
		tr, err := m.Single(ecbus.Write, lay.Slow+uint64(4*i), ecbus.W32, uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		if st := m.Run(tr); st != ecbus.StateOK {
			t.Fatalf("write %d: %v", i, st)
		}
	}
	if got := len(rec.Records()); got != 3 {
		t.Fatalf("3 pooled writes gave %d records", got)
	}
	tr, err := m.Single(ecbus.Read, 0x8000, ecbus.W32, 0) // unmapped: every attempt errors
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Run(tr); st != ecbus.StateError || tr.Retries != 2 {
		t.Fatalf("unmapped read: %v after %d retries, want an error after 2", st, tr.Retries)
	}
	if got := len(rec.Records()); got != 4 {
		t.Fatalf("a read tried 3 times gave %d records, want 1", got-3)
	}
}

// TestReplayMatchesDirectRun is the paper's verification step: a trace
// captured at the lower layer replays into the layer-1 model and every
// transaction completes on the same cycle as a direct layer-1 run.
func TestReplayMatchesDirectRun(t *testing.T) {
	recs := record(t)

	k1 := sim.New(0)
	b1 := tlm1.New(k1, busMap())
	direct, dc := core.RunScript(k1, b1, core.VerificationCorpus(lay), 1_000_000)

	k2 := sim.New(0)
	b2 := tlm1.New(k2, busMap())
	replay, rc := core.RunScript(k2, b2, Items(recs), 1_000_000)

	if !direct.Done() || !replay.Done() {
		t.Fatal("runs did not finish")
	}
	if dc != rc {
		t.Fatalf("direct run %d cycles, replay %d cycles", dc, rc)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	recs := record(t)
	var buf bytes.Buffer
	if err := Save(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("round trip length %d != %d", len(back), len(recs))
	}
	for i := range recs {
		a, b := recs[i], back[i]
		if a.Kind != b.Kind || a.Addr != b.Addr || a.Width != b.Width ||
			a.Burst != b.Burst || a.Issue != b.Issue || len(a.Data) != len(b.Data) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, a, b)
		}
		for j := range a.Data {
			if a.Data[j] != b.Data[j] {
				t.Fatalf("record %d data %d mismatch", i, j)
			}
		}
	}
}

func TestLoadRejectsCorruptLines(t *testing.T) {
	bad := []string{
		"1 9 100 4 0",    // bad kind
		"x 0 100 4 0",    // bad issue
		"1 0 zz 4 0",     // bad addr
		"1 0 100 4",      // short line
		"1 2 100 4 0 zz", // bad data
	}
	for _, s := range bad {
		if _, err := Load(strings.NewReader(s)); err == nil {
			t.Errorf("loaded corrupt line %q", s)
		}
	}
	// Blank lines are fine.
	recs, err := Load(strings.NewReader("\n\n1 0 100 4 0\n"))
	if err != nil || len(recs) != 1 {
		t.Fatalf("blank-line handling: %v, %d recs", err, len(recs))
	}
}

func TestItemsSkipsCorruptRecords(t *testing.T) {
	recs := []Record{
		{Kind: ecbus.Read, Addr: 0x101, Width: ecbus.W32}, // misaligned
		{Kind: ecbus.Read, Addr: 0x100, Width: ecbus.W32},
	}
	items := Items(recs)
	if len(items) != 1 {
		t.Fatalf("items = %d, want 1 (corrupt skipped)", len(items))
	}
}

func TestVCDOutput(t *testing.T) {
	k := sim.New(0)
	b := rtlbus.New(k, busMap())
	var buf bytes.Buffer
	v := NewVCD(&buf)
	k.At(sim.Post, "vcd", func(uint64) { v.Observe(b.Wires()) })
	m, _ := core.RunScript(k, b, core.VerificationCorpus(lay), 1_000_000)
	if !m.Done() {
		t.Fatal("run did not finish")
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"$timescale", "EB_AValid", "EB_A", "$enddefinitions", "#0"} {
		if !strings.Contains(s, want) {
			t.Fatalf("VCD missing %q", want)
		}
	}
	if strings.Count(s, "\n") < 50 {
		t.Fatal("VCD implausibly short")
	}
}

func TestProfileStats(t *testing.T) {
	var p Profile
	for _, v := range []float64{1e-12, 5e-12, 2e-12} {
		p.Add(v)
	}
	if p.Total() != 8e-12 {
		t.Fatalf("total = %g", p.Total())
	}
	if p.Peak() != 5e-12 {
		t.Fatalf("peak = %g", p.Peak())
	}
	var buf bytes.Buffer
	if err := p.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "cycle,energy_pJ\n0,1.000000\n") {
		t.Fatalf("CSV = %q", buf.String())
	}
}
