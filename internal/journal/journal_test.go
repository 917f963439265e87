package journal

import (
	"errors"
	"strings"
	"testing"
)

// memBus is an in-memory BusRW for protocol tests; Fail, when set,
// makes the Nth write (1-based) return ErrPowerLost, modelling a tear
// landing on that bus operation.
type memBus struct {
	words  map[uint64]uint32
	writes int
	Fail   int
}

func newMemBus() *memBus { return &memBus{words: map[uint64]uint32{}} }

func (b *memBus) ReadWord(addr uint64) (uint32, error) { return b.words[addr], nil }

func (b *memBus) WriteWord(addr uint64, data uint32) error {
	b.writes++
	if b.Fail != 0 && b.writes >= b.Fail {
		return ErrPowerLost
	}
	b.words[addr] = data
	return nil
}

var testRegion = Region{DataBase: 0x1000, JournalBase: 0x1200, JournalSize: 0x600}

func TestNamedVocabulary(t *testing.T) {
	for _, name := range Names {
		s, ok := Named(name)
		if !ok {
			t.Fatalf("Named(%q) not ok", name)
		}
		if name == "none" && !s.Empty() {
			t.Fatal("none must be Empty")
		}
		if name != "none" && s.Empty() {
			t.Fatalf("%q must not be Empty", name)
		}
	}
	if _, ok := Named("belt-and-braces"); ok {
		t.Fatal("unknown strategy resolved")
	}
}

// eventSeq extracts the kind sequence for order assertions.
func eventSeq(events []Event) []EventKind {
	kinds := make([]EventKind, len(events))
	for i, e := range events {
		kinds[i] = e.Kind
	}
	return kinds
}

func TestWordEagerOrdering(t *testing.T) {
	bus := newMemBus()
	s, _ := Named("word-eager")
	w := NewWriter(s, testRegion, bus)
	var events []Event
	w.Obs = func(e Event) { events = append(events, e) }

	w.Begin()
	if err := w.Write(0x1004, 0xAA); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	// Eager: the single Write is already a full frame.
	want := []EventKind{EvRecord, EvRecord, EvRecord, EvMarker, EvInPlace}
	got := eventSeq(events)
	if len(got) != len(want) {
		t.Fatalf("events %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if bus.words[0x1004] != 0xAA {
		t.Fatalf("in-place word = %#x", bus.words[0x1004])
	}
	if w.Seq() != 1 || w.Stats.Commits != 1 {
		t.Fatalf("seq=%d commits=%d", w.Seq(), w.Stats.Commits)
	}
	if w.Committed()[0x1004] != 0xAA {
		t.Fatal("committed map missing the write")
	}
}

func TestWordLazyBuffersUntilCommit(t *testing.T) {
	bus := newMemBus()
	s, _ := Named("word-lazy")
	w := NewWriter(s, testRegion, bus)

	w.Begin()
	if err := w.Write(0x1000, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(0x1008, 2); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(0x1000, 3); err != nil { // supersedes the first
		t.Fatal(err)
	}
	if bus.writes != 0 {
		t.Fatalf("lazy writes hit the bus before Commit: %d", bus.writes)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if w.Stats.Commits != 1 || w.Stats.Markers != 1 {
		t.Fatalf("stats %+v", w.Stats)
	}
	if bus.words[0x1000] != 3 || bus.words[0x1008] != 2 {
		t.Fatalf("in-place words %#x %#x", bus.words[0x1000], bus.words[0x1008])
	}
	// 2 entries → hdr + 2*(off,data) = 5 record words + marker.
	if w.Stats.Records != 5 {
		t.Fatalf("records = %d, want 5", w.Stats.Records)
	}
}

func TestPageGranularityAssemblesImages(t *testing.T) {
	bus := newMemBus()
	bus.words[0x1010] = 0x11 // untouched neighbour in the dirty page
	s, _ := Named("page-lazy")
	w := NewWriter(s, testRegion, bus)

	w.Begin()
	if err := w.Write(0x1014, 0x22); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if w.Stats.PageLoads != PageWords {
		t.Fatalf("page loads = %d, want %d", w.Stats.PageLoads, PageWords)
	}
	// hdr + (index + PageWords data) = 6 record words for one page.
	if w.Stats.Records != uint64(2+PageWords) {
		t.Fatalf("records = %d", w.Stats.Records)
	}
	if bus.words[0x1010] != 0x11 || bus.words[0x1014] != 0x22 {
		t.Fatal("page rewrite lost the untouched neighbour")
	}
	// The page in-place rewrite covers all PageWords words.
	if w.Stats.InPlaceWrites != PageWords {
		t.Fatalf("in-place writes = %d, want %d", w.Stats.InPlaceWrites, PageWords)
	}
}

func TestWriteOutsideDataWindow(t *testing.T) {
	s, _ := Named("word-eager")
	w := NewWriter(s, testRegion, newMemBus())
	if err := w.Write(testRegion.JournalBase, 1); err == nil {
		t.Fatal("write into the journal area must fail")
	}
	if err := w.Write(testRegion.DataBase-4, 1); err == nil {
		t.Fatal("write below the data window must fail")
	}
}

func TestPowerLossBeforeMarkerIsNotCommitted(t *testing.T) {
	bus := newMemBus()
	s, _ := Named("word-lazy")
	w := NewWriter(s, testRegion, bus)
	w.Begin()
	_ = w.Write(0x1000, 0xBEEF)
	bus.Fail = 2 // tear on the second record word, before the marker
	err := w.Commit()
	if !errors.Is(err, ErrPowerLost) {
		t.Fatalf("err = %v", err)
	}
	if w.Seq() != 0 || w.Stats.Commits != 0 {
		t.Fatal("torn frame must not count as committed")
	}
	if len(w.Committed()) != 0 {
		t.Fatal("torn frame leaked into the committed map")
	}
}

// meterBus wraps memBus with a fake energy meter: each write costs 3
// units, each read 1, so the replay's phase-energy accounting has
// something real to telescope over.
type meterBus struct {
	*memBus
	energy float64
}

func (b *meterBus) ReadWord(addr uint64) (uint32, error) {
	b.energy += 1
	return b.memBus.ReadWord(addr)
}

func (b *meterBus) WriteWord(addr uint64, data uint32) error {
	b.energy += 3
	return b.memBus.WriteWord(addr, data)
}

func TestReplayRestoresCommittedDiscardssTorn(t *testing.T) {
	for _, name := range []string{"word-eager", "word-lazy", "page-eager", "page-lazy"} {
		t.Run(name, func(t *testing.T) {
			bus := newMemBus()
			s, _ := Named(name)
			w := NewWriter(s, testRegion, bus)

			w.Begin()
			_ = w.Write(0x1000, 0x11)
			_ = w.Write(0x1004, 0x22)
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			w.Begin()
			_ = w.Write(0x1010, 0x33)
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			committed := map[uint64]uint32{}
			for a, v := range w.Committed() {
				committed[a] = v
			}

			// Third transaction tears before its marker: make every write
			// from here on fail, then hand-corrupt nothing — the frame
			// simply has records but no valid marker.
			w.Begin()
			bus.Fail = bus.writes + 2
			err := w.Write(0x1020, 0x44) // eager: the Write itself flushes
			if err == nil {
				err = w.Commit()
			}
			if !errors.Is(err, ErrPowerLost) {
				t.Fatalf("expected power loss, got %v", err)
			}
			bus.Fail = 0

			// Simulate the power cycle: in-place data may be stale, the
			// journal survives. Clobber the in-place copies of the
			// committed words to prove replay restores them.
			bus.words[0x1000] = 0xDEAD
			bus.words[0x1010] = 0xDEAD

			var done bool
			rec, err := Replay(s, testRegion, bus, nil, func(e Event) {
				if e.Kind == EvReplayDone {
					done = true
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			// Eager mode turns each of the 3 committed writes into its own
			// frame; lazy groups them into 2 transactions.
			wantFrames := 2
			if s.Commit == CommitEager {
				wantFrames = 3
			}
			if rec.Frames != wantFrames || rec.Applied != wantFrames || rec.Discarded != 1 {
				t.Fatalf("recovery %+v, want %d frames", rec, wantFrames)
			}
			if !done {
				t.Fatal("EvReplayDone not emitted")
			}
			for a, v := range committed {
				if bus.words[a] != v {
					t.Fatalf("replay lost %#x: got %#x want %#x", a, bus.words[a], v)
				}
			}
			if bus.words[0x1020] == 0x44 {
				t.Fatal("uncommitted write survived replay")
			}

			// The journal is empty after finalize: a second replay finds
			// nothing.
			rec2, err := Replay(s, testRegion, bus, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rec2.Frames != 0 || rec2.WordsApplied != 0 {
				t.Fatalf("second replay found work: %+v", rec2)
			}
		})
	}
}

func TestReplayPhaseEnergyTelescopes(t *testing.T) {
	bus := &meterBus{memBus: newMemBus()}
	s, _ := Named("word-lazy")
	w := NewWriter(s, testRegion, bus)
	w.Begin()
	_ = w.Write(0x1000, 7)
	_ = w.Write(0x1004, 8)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	rec, err := Replay(s, testRegion, bus, func() float64 { return bus.energy }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ScanJ <= 0 || rec.ApplyJ <= 0 || rec.FinalizeJ <= 0 {
		t.Fatalf("phases must each cost energy: %+v", rec)
	}
	// Bit-exact telescoping: the phase figures are differences of the
	// same meter samples, so their sum reproduces the total exactly.
	if rec.ScanJ+rec.ApplyJ+rec.FinalizeJ != rec.BoundsJ[3]-rec.BoundsJ[0] {
		t.Fatalf("phase energies do not telescope: %+v", rec)
	}
}

func TestJournalAreaFull(t *testing.T) {
	small := Region{DataBase: 0x1000, JournalBase: 0x1200, JournalSize: 16}
	s, _ := Named("word-eager")
	w := NewWriter(s, small, newMemBus())
	if err := w.Write(0x1000, 1); err != nil { // 3 records + marker = 16 bytes
		t.Fatal(err)
	}
	if err := w.Write(0x1004, 2); err == nil || !strings.Contains(err.Error(), "full") {
		t.Fatalf("want area-full error, got %v", err)
	}
}
