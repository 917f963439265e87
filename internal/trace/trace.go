// Package trace implements the paper's trace flow (§4.1): "We traced the
// bus transactions and used them as input test sequences for the
// transaction level models." A Recorder captures the transaction stream
// a master drives into any bus layer; the recording replays into any
// other layer as a stimulus script, serializes to a line-oriented text
// format, and exports as VCD (wire level) or CSV (power profile) for
// waveform and power-analysis tooling.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/ecbus"
)

// Record is one traced transaction.
type Record struct {
	Kind  ecbus.Kind
	Addr  uint64
	Width ecbus.Width
	Burst bool
	Data  []uint32 // write payload (empty for reads)
	Issue uint64   // cycle the request was accepted
}

// Recorder wraps a bus initiator and captures every accepted
// transaction once: its first attempt's acceptance, so a retry is not
// recorded again, while a pooled transaction reset for its next use is.
// It is transparent: masters drive it exactly like the underlying bus.
// It records what the wrapped Access accepts, so it wraps a bus: behind
// an arbitration port the grant hands a transaction to the bus without
// a call through the Recorder, and the transaction goes unrecorded.
// A refusal passes through unrecorded, so Unwrap
// exposes the bus: a master behind the Recorder sleeps through a full
// bus (core.Refuser) exactly as it would on the bus itself.
type Recorder struct {
	inner core.Initiator
	recs  []Record
}

// NewRecorder wraps bus.
func NewRecorder(bus core.Initiator) *Recorder { return &Recorder{inner: bus} }

// Access implements core.Initiator, recording first acceptances.
func (r *Recorder) Access(tr *ecbus.Transaction) ecbus.BusState {
	st := r.inner.Access(tr)
	if st == ecbus.StateRequest && tr.Retries == 0 {
		rec := Record{
			Kind: tr.Kind, Addr: tr.Addr, Width: tr.Width,
			Burst: tr.Burst, Issue: tr.IssueCycle,
		}
		if tr.Kind == ecbus.Write {
			rec.Data = append([]uint32(nil), tr.Data...)
		}
		r.recs = append(r.recs, rec)
	}
	return st
}

// Unwrap returns the wrapped initiator.
func (r *Recorder) Unwrap() core.Initiator { return r.inner }

// Records returns the captured transactions in acceptance order.
func (r *Recorder) Records() []Record { return r.recs }

// Items rebuilds the trace as a stimulus script preserving the recorded
// issue timing, ready to replay into another bus layer.
func Items(recs []Record) []core.Item {
	items := make([]core.Item, 0, len(recs))
	for i, rec := range recs {
		var tr *ecbus.Transaction
		var err error
		if rec.Burst {
			data := rec.Data
			if rec.Kind != ecbus.Write {
				data = nil
			}
			tr, err = ecbus.NewBurst(uint64(i+1), rec.Kind, rec.Addr, append([]uint32(nil), data...))
		} else {
			var d uint32
			if len(rec.Data) > 0 {
				d = rec.Data[0]
			}
			tr, err = ecbus.NewSingle(uint64(i+1), rec.Kind, rec.Addr, rec.Width, d)
		}
		if err != nil {
			// Traces come from live runs; a malformed record indicates
			// corruption — skip it rather than poison the replay.
			continue
		}
		items = append(items, core.Item{Tr: tr, NotBefore: rec.Issue})
	}
	return items
}

// Save writes the trace in the line format:
//
//	<issue> <kind> <addr-hex> <width> <burst> [data-hex...]
func Save(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	for _, r := range recs {
		burst := 0
		if r.Burst {
			burst = 1
		}
		if _, err := fmt.Fprintf(bw, "%d %d %x %d %d", r.Issue, int(r.Kind), r.Addr, int(r.Width), burst); err != nil {
			return err
		}
		for _, d := range r.Data {
			if _, err := fmt.Fprintf(bw, " %x", d); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load parses a trace written by Save.
func Load(rd io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(rd)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 5 {
			return nil, fmt.Errorf("trace: line %d: want >=5 fields, got %d", line, len(fields))
		}
		var r Record
		var err error
		if r.Issue, err = strconv.ParseUint(fields[0], 10, 64); err != nil {
			return nil, fmt.Errorf("trace: line %d: issue: %v", line, err)
		}
		k, err := strconv.Atoi(fields[1])
		if err != nil || k < 0 || k > 2 {
			return nil, fmt.Errorf("trace: line %d: bad kind %q", line, fields[1])
		}
		r.Kind = ecbus.Kind(k)
		if r.Addr, err = strconv.ParseUint(fields[2], 16, 64); err != nil {
			return nil, fmt.Errorf("trace: line %d: addr: %v", line, err)
		}
		w, err := strconv.Atoi(fields[3])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: width: %v", line, err)
		}
		r.Width = ecbus.Width(w)
		b, err := strconv.Atoi(fields[4])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: burst: %v", line, err)
		}
		r.Burst = b != 0
		for _, f := range fields[5:] {
			d, err := strconv.ParseUint(f, 16, 32)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: data: %v", line, err)
			}
			r.Data = append(r.Data, uint32(d))
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}
