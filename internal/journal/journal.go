// Package journal implements the card's transaction journal: a redo
// log in non-volatile memory that makes multi-word persistent updates
// atomic under power loss. A transaction's data travels as journal
// records, a commit marker seals the frame, and only then are the
// words written in place — so a tear at any point leaves either a
// frame without a valid marker (discarded on the next power-up) or a
// committed frame whose in-place writes the replay re-applies. This is
// the write-ordering discipline the smart-card literature calls
// tearing protection, and the checker's persistence rules enforce it.
//
// Two axes are pluggable, giving the four named strategies the sweep
// explores:
//
//   - granularity: word (one record per 32-bit word) or page (one
//     record per PageWords-word page image, the EEPROM page-programming
//     model — fewer, bigger programming operations);
//   - commit mode: eager (every write is its own durable frame —
//     minimal loss window, no transaction atomicity across a command)
//     or lazy (writes buffer in RAM and flush as one frame at Commit —
//     full atomicity, wider window of total loss).
//
// The journal performs all its I/O through the BusRW interface, so
// every record, marker and in-place write is a bus transaction the
// platform's energy models price — the journaling-energy overhead the
// EXPERIMENTS table measures is real simulated traffic, not bookkeeping.
package journal

import (
	"errors"
	"fmt"
	"sort"
)

// ErrPowerLost is the sentinel a bus implementation returns when the
// tear monitor latched during an access: the supply is gone and the
// run is over. It lives here — the lowest layer both the tear injector
// and the persistence clients share — so the card application, the
// exploration harness and the session runner can all errors.Is against
// one value without import cycles.
var ErrPowerLost = errors.New("power lost (card tear)")

// BusRW is the word-level bus access the journal performs its I/O
// through. Implementations drive a real (simulated) bus master, so
// journal traffic is metered like any other.
type BusRW interface {
	ReadWord(addr uint64) (uint32, error)
	WriteWord(addr uint64, data uint32) error
}

// Granularity selects the journal record unit.
type Granularity int

// Record granularities.
const (
	GranWord Granularity = iota // one record per 32-bit word
	GranPage                    // one record per PageWords-word page image
)

// CommitMode selects when a transaction's frame becomes durable.
type CommitMode int

// Commit modes.
const (
	CommitEager CommitMode = iota // every write flushes its own frame
	CommitLazy                    // writes buffer; Commit flushes one frame
)

// PageWords is the page size of the page-granularity strategies, in
// 32-bit words (16-byte pages, matching the burst alignment of the
// address maps).
const PageWords = 4

// Strategy is one point of the journaling design space. The zero
// Strategy (Empty) journals nothing: writes go straight in place,
// fully exposed to tearing.
type Strategy struct {
	Name   string
	Gran   Granularity
	Commit CommitMode
}

// Empty reports whether the strategy disables journaling.
func (s Strategy) Empty() bool { return s.Name == "" || s.Name == "none" }

// Names is the strategy vocabulary of the sweep's journal axis.
var Names = []string{"none", "word-eager", "word-lazy", "page-eager", "page-lazy"}

// Named resolves a strategy name ("" and "none" both mean no journal).
func Named(name string) (Strategy, bool) {
	switch name {
	case "", "none":
		return Strategy{}, true
	case "word-eager":
		return Strategy{Name: name, Gran: GranWord, Commit: CommitEager}, true
	case "word-lazy":
		return Strategy{Name: name, Gran: GranWord, Commit: CommitLazy}, true
	case "page-eager":
		return Strategy{Name: name, Gran: GranPage, Commit: CommitEager}, true
	case "page-lazy":
		return Strategy{Name: name, Gran: GranPage, Commit: CommitLazy}, true
	default:
		return Strategy{}, false
	}
}

// Region locates the journal inside the non-volatile memory: the
// journal area itself and the base of the data window whose words the
// records address (offsets are encoded relative to DataBase, so the
// frame format is position-independent).
type Region struct {
	DataBase    uint64 // base of the journaled data window
	JournalBase uint64 // first word of the journal area
	JournalSize uint64 // journal area size in bytes
}

// Frame format, one frame per committed transaction:
//
//	hdr    0x4A|seq|count   ('J', frame sequence, record count)
//	...    count records    (word: offset, data; page: page index, PageWords data words)
//	marker 0x43|seq|sum     ('C', same sequence, 16-bit checksum of hdr+records)
//
// A frame is valid iff its marker magic and sequence match and the
// checksum covers every preceding word — a tear inside the frame (or
// inside the marker's own programming window) fails the check and the
// replay discards the tail.
const (
	magicHdr    = 0x4A // 'J'
	magicMarker = 0x43 // 'C'
)

func hdrWord(seq uint32, count int) uint32 {
	return magicHdr<<24 | (seq&0xFF)<<16 | uint32(count)&0xFFFF
}

func markerWord(seq uint32, sum uint16) uint32 {
	return magicMarker<<24 | (seq&0xFF)<<16 | uint32(sum)
}

// checksum folds frame words into the 16-bit marker checksum.
func checksum(words []uint32) uint16 {
	var s uint32
	for _, w := range words {
		s += w >> 16
		s += w & 0xFFFF
	}
	return uint16(s&0xFFFF) + uint16(s>>16)
}

// EventKind tags a journal protocol event for the persistence checker.
type EventKind int

// Journal protocol events.
const (
	EvRecord      EventKind = iota // a journal record word was written
	EvMarker                       // a commit marker was written
	EvInPlace                      // an in-place data write of a committed frame
	EvReplayApply                  // replay re-applied a committed word
	EvReplayDone                   // replay finished; recovered data is safe to read
)

// Event is one observable step of the journal protocol. Seq is the
// frame sequence; Addr the bus address written (0 for EvReplayDone).
type Event struct {
	Kind EventKind
	Seq  uint32
	Addr uint64
}

// Entry is one journaled word update.
type Entry struct {
	Addr uint64
	Data uint32
}

// WriterStats counts the writer's bus traffic by purpose.
type WriterStats struct {
	Records       uint64 // journal record words written (incl. headers)
	Markers       uint64 // commit markers written
	Commits       uint64 // frames made durable
	InPlaceWrites uint64 // in-place data writes
	PageLoads     uint64 // data-window reads assembling page images
}

// Writer journals transactions under one strategy. Begin/Write/Commit
// delimit a transaction; under the eager commit mode every Write is
// its own durable frame and Commit is a no-op. Any error from the bus
// (including ErrPowerLost) aborts the operation immediately; the words
// already on the bus stay wherever the tear left them — exactly what
// the replay is for.
type Writer struct {
	s   Strategy
	reg Region
	bus BusRW

	// Obs, when set, observes every protocol step — the persistence
	// checker's feed.
	Obs func(Event)
	// OnCommit, when set, is invoked after a frame's marker is durable
	// (its entries are now guaranteed recoverable). Session runners use
	// it to track the committed prefix.
	OnCommit func(seq uint32)

	head      uint64
	seq       uint32
	pending   []Entry
	committed map[uint64]uint32

	Stats WriterStats
}

// NewWriter creates a journal writer over the bus. The strategy must
// not be Empty — callers branch to direct writes themselves.
func NewWriter(s Strategy, reg Region, bus BusRW) *Writer {
	return &Writer{s: s, reg: reg, bus: bus, head: reg.JournalBase, committed: map[uint64]uint32{}}
}

// Committed returns the journaled words made durable so far (marker
// written), keyed by address. The map is live; copy before mutating.
func (w *Writer) Committed() map[uint64]uint32 { return w.committed }

// Begin opens a transaction (clears the lazy buffer).
func (w *Writer) Begin() { w.pending = w.pending[:0] }

// Write journals one word update. Eager mode flushes it as its own
// frame immediately; lazy mode buffers until Commit (a later Write to
// the same address within the transaction supersedes the earlier one).
func (w *Writer) Write(addr uint64, data uint32) error {
	if addr < w.reg.DataBase || addr >= w.reg.JournalBase {
		return fmt.Errorf("journal: write at %#x outside the data window [%#x, %#x)",
			addr, w.reg.DataBase, w.reg.JournalBase)
	}
	if w.s.Commit == CommitEager {
		return w.flush([]Entry{{Addr: addr, Data: data}})
	}
	for i := range w.pending {
		if w.pending[i].Addr == addr {
			w.pending[i].Data = data
			return nil
		}
	}
	w.pending = append(w.pending, Entry{Addr: addr, Data: data})
	return nil
}

// Commit makes the open transaction durable. Under the eager mode
// every write already flushed, so Commit is a no-op.
func (w *Writer) Commit() error {
	if w.s.Commit == CommitEager || len(w.pending) == 0 {
		return nil
	}
	err := w.flush(w.pending)
	w.pending = w.pending[:0]
	return err
}

// flush writes one frame — records, then marker, then in place — and
// reports the commit.
func (w *Writer) flush(entries []Entry) error {
	seq := w.seq + 1
	words, inPlace, err := w.encode(seq, entries)
	if err != nil {
		return err
	}
	need := uint64(4 * (len(words) + 1))
	if w.head+need > w.reg.JournalBase+w.reg.JournalSize {
		return fmt.Errorf("journal: area full (%d bytes needed at %#x)", need, w.head)
	}
	// Records first: the data must be recoverable before anything marks
	// it committed.
	for i, word := range words {
		addr := w.head + uint64(4*i)
		if err := w.bus.WriteWord(addr, word); err != nil {
			return err
		}
		w.Stats.Records++
		w.observe(Event{Kind: EvRecord, Seq: seq, Addr: addr})
	}
	// The marker seals the frame; once it is on the device the
	// transaction is durable.
	markerAddr := w.head + uint64(4*len(words))
	if err := w.bus.WriteWord(markerAddr, markerWord(seq, checksum(words))); err != nil {
		return err
	}
	w.Stats.Markers++
	w.Stats.Commits++
	w.observe(Event{Kind: EvMarker, Seq: seq, Addr: markerAddr})
	w.seq = seq
	w.head += need
	for _, e := range entries {
		w.committed[e.Addr] = e.Data
	}
	if w.OnCommit != nil {
		w.OnCommit(seq)
	}
	// In-place writes last: a tear here is recoverable by replay.
	for _, e := range inPlace {
		if err := w.bus.WriteWord(e.Addr, e.Data); err != nil {
			return err
		}
		w.Stats.InPlaceWrites++
		w.observe(Event{Kind: EvInPlace, Seq: seq, Addr: e.Addr})
	}
	return nil
}

// encode renders a frame's record words and the in-place write list
// for the strategy's granularity. Page granularity reads the untouched
// words of each dirty page off the bus to assemble full page images —
// the EEPROM page-programming model, where the whole page reprograms.
func (w *Writer) encode(seq uint32, entries []Entry) (words []uint32, inPlace []Entry, err error) {
	switch w.s.Gran {
	case GranWord:
		words = make([]uint32, 0, 1+2*len(entries))
		words = append(words, hdrWord(seq, len(entries)))
		for _, e := range entries {
			words = append(words, uint32((e.Addr-w.reg.DataBase)/4), e.Data)
		}
		return words, entries, nil
	case GranPage:
		pageBytes := uint64(4 * PageWords)
		images := map[uint64][]uint32{}
		var order []uint64
		for _, e := range entries {
			page := (e.Addr - w.reg.DataBase) / pageBytes
			img, ok := images[page]
			if !ok {
				img = make([]uint32, PageWords)
				base := w.reg.DataBase + page*pageBytes
				for i := range img {
					v, rerr := w.bus.ReadWord(base + uint64(4*i))
					if rerr != nil {
						return nil, nil, rerr
					}
					w.Stats.PageLoads++
					img[i] = v
				}
				images[page] = img
				order = append(order, page)
			}
			img[(e.Addr-w.reg.DataBase)%pageBytes/4] = e.Data
		}
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
		words = make([]uint32, 0, 1+(1+PageWords)*len(order))
		words = append(words, hdrWord(seq, len(order)))
		for _, page := range order {
			words = append(words, uint32(page))
			words = append(words, images[page]...)
			base := w.reg.DataBase + page*pageBytes
			for i, v := range images[page] {
				inPlace = append(inPlace, Entry{Addr: base + uint64(4*i), Data: v})
			}
		}
		return words, inPlace, nil
	default:
		return nil, nil, fmt.Errorf("journal: unknown granularity %d", w.s.Gran)
	}
}

func (w *Writer) observe(e Event) {
	if w.Obs != nil {
		w.Obs(e)
	}
}

// Recovery reports a power-up replay. BoundsJ holds the raw meter
// samples around the three phases — before scan, after scan, after
// apply, after finalize — so each phase figure is a single exact
// difference of two meter readings and adjacent phases share their
// boundary sample verbatim. That is the telescoping contract: no
// floating-point re-association is ever involved, BoundsJ[0] and
// BoundsJ[3] are bit-for-bit the meter readings around the whole
// replay, and the recovery total BoundsJ[3] - BoundsJ[0] is the exact
// meter delta.
type Recovery struct {
	Frames       int // valid frames found by the scan
	Applied      int // frames re-applied in place
	Discarded    int // torn tail frames discarded (0 or 1)
	WordsApplied int // data words rewritten by the replay

	BoundsJ   [4]float64 // meter samples: start, after scan, after apply, after finalize
	ScanJ     float64    // BoundsJ[1] - BoundsJ[0]
	ApplyJ    float64    // BoundsJ[2] - BoundsJ[1]
	FinalizeJ float64    // BoundsJ[3] - BoundsJ[2]
}

// frame is a scanned, validated journal frame.
type frame struct {
	seq     uint32
	hdrAddr uint64
	entries []Entry
}

// Replay is the power-up half of the journal protocol: scan the
// journal area for frames, validate each frame's commit marker,
// re-apply every committed frame's words in place, discard the torn
// tail (a frame whose marker never made it), and finally erase the
// frame headers so the journal is empty for the next session. energy,
// when non-nil, samples the platform's running energy meter; obs, when
// non-nil, observes the replay's protocol events (the checker feed —
// EvReplayDone marks the point after which torn words are safe to
// read).
func Replay(s Strategy, reg Region, bus BusRW, energy func() float64, obs func(Event)) (Recovery, error) {
	var rec Recovery
	sample := func(i int) {
		if energy != nil {
			rec.BoundsJ[i] = energy()
		}
	}
	emit := func(e Event) {
		if obs != nil {
			obs(e)
		}
	}
	sample(0)

	// Phase 1 — scan: walk the journal area frame by frame. The first
	// word that is not a valid header ends the scan; a header whose
	// marker fails validation is the torn tail and is discarded.
	var frames []frame
	addr, end := reg.JournalBase, reg.JournalBase+reg.JournalSize
	for addr+4 <= end {
		hdr, err := bus.ReadWord(addr)
		if err != nil {
			return rec, err
		}
		if hdr>>24 != magicHdr {
			break
		}
		seq, count := hdr>>16&0xFF, int(hdr&0xFFFF)
		var perEntry int
		switch s.Gran {
		case GranPage:
			perEntry = 1 + PageWords
		default:
			perEntry = 2
		}
		nwords := 1 + count*perEntry
		markerAddr := addr + uint64(4*nwords)
		if markerAddr+4 > end {
			rec.Discarded++
			break
		}
		words := make([]uint32, nwords)
		words[0] = hdr
		for i := 1; i < nwords; i++ {
			if words[i], err = bus.ReadWord(addr + uint64(4*i)); err != nil {
				return rec, err
			}
		}
		marker, err := bus.ReadWord(markerAddr)
		if err != nil {
			return rec, err
		}
		if marker != markerWord(seq, checksum(words)) {
			rec.Discarded++
			break
		}
		f := frame{seq: seq, hdrAddr: addr}
		for i := 0; i < count; i++ {
			e := words[1+i*perEntry:]
			if s.Gran == GranPage {
				base := reg.DataBase + uint64(e[0])*uint64(4*PageWords)
				for j := 0; j < PageWords; j++ {
					f.entries = append(f.entries, Entry{Addr: base + uint64(4*j), Data: e[1+j]})
				}
			} else {
				f.entries = append(f.entries, Entry{Addr: reg.DataBase + uint64(e[0])*4, Data: e[1]})
			}
		}
		frames = append(frames, f)
		addr = markerAddr + 4
	}
	rec.Frames = len(frames)
	sample(1)

	// Phase 2 — apply: re-write every committed frame's words in place.
	// Idempotent, so a tear during replay just replays again next time.
	for _, f := range frames {
		for _, e := range f.entries {
			if err := bus.WriteWord(e.Addr, e.Data); err != nil {
				return rec, err
			}
			rec.WordsApplied++
			emit(Event{Kind: EvReplayApply, Seq: f.seq, Addr: e.Addr})
		}
		rec.Applied++
	}
	sample(2)

	// Phase 3 — finalize: erase the frame headers (and the torn tail's)
	// so the next scan finds an empty journal.
	for _, f := range frames {
		if err := bus.WriteWord(f.hdrAddr, 0); err != nil {
			return rec, err
		}
	}
	if rec.Discarded > 0 {
		if err := bus.WriteWord(addr, 0); err != nil {
			return rec, err
		}
	}
	sample(3)
	rec.ScanJ = rec.BoundsJ[1] - rec.BoundsJ[0]
	rec.ApplyJ = rec.BoundsJ[2] - rec.BoundsJ[1]
	rec.FinalizeJ = rec.BoundsJ[3] - rec.BoundsJ[2]
	emit(Event{Kind: EvReplayDone})
	return rec, nil
}
