package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/explore"
)

// The body codec. Every response body is zero or more row lines, then
// one closing line — a sweep or batch trailer, or the only document of
// an estimate or config body — each line one JSON value ended by a
// newline. One builder makes sweep rows and one function inverts them,
// one writer renders every body, and one strict reader parses every
// body back: the client, the tests and every route's Check go through
// it.

// EnergyBits renders a joule figure's IEEE-754 bit pattern as 16 hex
// digits — the representation the cache equivalence is asserted on.
func EnergyBits(e float64) string {
	return fmt.Sprintf("%016x", math.Float64bits(e))
}

// EnergyFromBits is the exact inverse of EnergyBits: it accepts exactly
// the 16 lower-case hex digits EnergyBits writes.
func EnergyFromBits(s string) (float64, error) {
	if len(s) != 16 || strings.Trim(s, "0123456789abcdef") != "" {
		return 0, fmt.Errorf("serve: bad energy bits %q: want 16 lower-case hex digits", s)
	}
	bits, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("serve: bad energy bits %q: %w", s, err)
	}
	return math.Float64frombits(bits), nil
}

// sweepRow is the one SweepRow builder: every row takes its
// configuration columns from (workload, c) and carries its energy with
// the bit pattern. exactRow and predictedRow add only their measured
// fields.
func sweepRow(workload string, c explore.Config, cycles uint64, energyJ float64) SweepRow {
	return SweepRow{
		Workload:   workload,
		Layer:      c.Layer,
		Org:        c.Org.String(),
		AddrMap:    c.AddrMap,
		Fault:      c.Fault,
		Arb:        c.Arb,
		Tear:       c.Tear,
		Journal:    c.Journal,
		Cycles:     cycles,
		EnergyJ:    energyJ,
		EnergyBits: EnergyBits(energyJ),
	}
}

// exactRow renders one exact sweep result.
func exactRow(r explore.Result) SweepRow {
	row := sweepRow(r.Workload, r.Config, r.Cycles, r.BusEnergyJ)
	row.Tx, row.Retries, row.Steps = r.Transactions, r.Retries, r.Steps
	row.Torn, row.CutCycle, row.RecoveryJ = r.Torn, r.CutCycle, r.RecoveryJ
	// The recovery figure gets the same bit-pattern treatment as the
	// energy total, but only when a replay actually ran — clean rows
	// must stay byte-identical to prior renderings.
	if r.RecoveryJ != 0 {
		row.RecoveryBits = EnergyBits(r.RecoveryJ)
	}
	return row
}

// predictedRow renders one screening prediction: Predicted set, Kept
// the pruning decision, the cycle estimate rounded and the exact-only
// counters zero.
func predictedRow(p explore.Prediction) SweepRow {
	row := sweepRow(p.Workload, p.Config, uint64(math.Round(p.Cycles)), p.EnergyJ)
	row.Predicted, row.Kept = true, p.Kept
	return row
}

// SweepOutcomes inverts the row builder over a sweep body's rows, in
// order: exact rows come back as results, predicted rows as
// predictions. Energies are read from their bit patterns, so they are
// the computed figures to the last bit; a predicted cycle count comes
// back as the rounded figure the row carries.
func SweepOutcomes(rows []SweepRow) ([]explore.Result, []explore.Prediction, error) {
	var results []explore.Result
	var preds []explore.Prediction
	for _, row := range rows {
		org, ok := OrgByName(row.Org)
		if !ok {
			return nil, nil, fmt.Errorf("serve: row has unknown organization %q", row.Org)
		}
		cfg := explore.Config{Layer: row.Layer, Org: org, AddrMap: row.AddrMap,
			Fault: row.Fault, Arb: row.Arb, Tear: row.Tear, Journal: row.Journal}
		energy, err := EnergyFromBits(row.EnergyBits)
		if err != nil {
			return nil, nil, err
		}
		if row.Predicted {
			preds = append(preds, explore.Prediction{Config: cfg, Workload: row.Workload,
				EnergyJ: energy, Cycles: float64(row.Cycles), Kept: row.Kept})
			continue
		}
		var recovery float64
		if row.RecoveryBits != "" {
			if recovery, err = EnergyFromBits(row.RecoveryBits); err != nil {
				return nil, nil, err
			}
		}
		results = append(results, explore.Result{Config: cfg, Workload: row.Workload,
			Cycles: row.Cycles, BusEnergyJ: energy, Transactions: row.Tx, Retries: row.Retries,
			Steps: row.Steps, Torn: row.Torn, CutCycle: row.CutCycle, RecoveryJ: recovery})
	}
	return results, preds, nil
}

// writeBody is the one body writer: each row as one JSON line, then the
// closing line.
func writeBody[R any](rows []R, closing any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range rows {
		if err := enc.Encode(&rows[i]); err != nil {
			return nil, err
		}
	}
	if err := enc.Encode(closing); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// SweepBody renders an error-free exhaustive sweep's body from its rows:
// how the cluster assembles a distributed sweep, byte-identical to the
// single-node body of the same axes.
func SweepBody(key string, rows []SweepRow) ([]byte, error) {
	return writeBody(rows, SweepTrailer{Done: true, Key: key, Rows: len(rows)})
}

// ErrTruncatedBody reports a body that stopped before its closing line:
// empty, cut at a line boundary or cut mid-line. That is the signature
// of a cut-off transfer or a partially-written cached body — retryable
// from another source — whereas any other malformed body is corruption
// and fails fast. The cluster's peer-fetch layer branches on exactly
// this distinction.
var ErrTruncatedBody = errors.New("serve: truncated body (stream ended before trailer)")

// readBody is the one body reader: rows, exactly one closing line, then
// the end of the body. Every line is one JSON value ended by a newline
// and decoded strictly (no unknown field, nothing after the value).
// done tells a trailer from a row; nil means the body is its closing
// line alone.
func readBody[R, T any](what string, body []byte, done func(T) bool) (rows []R, closing T, err error) {
	fail := func(err error) ([]R, T, error) {
		return rows, closing, fmt.Errorf("serve: bad %s body: %w", what, err)
	}
	if len(body) == 0 {
		return fail(ErrTruncatedBody)
	}
	for {
		line, rest, whole := bytes.Cut(body, []byte{'\n'})
		if len(rest) > 0 { // another line follows: this one is a row
			if done == nil {
				return fail(errors.New("data after the document"))
			}
			var row R
			if err := decodeLine(line, &row); err != nil {
				return fail(err)
			}
			rows = append(rows, row)
			body = rest
			continue
		}
		// The last line: the closing line, or whatever the stream
		// stopped in.
		err := decodeLine(line, &closing)
		switch {
		case err == nil && (done == nil || done(closing)):
			if !whole {
				return fail(ErrTruncatedBody) // cut just before the newline
			}
			return rows, closing, nil
		case !whole && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)):
			return fail(ErrTruncatedBody) // cut mid-line
		case done != nil && decodeLine(line, new(R)) == nil:
			return fail(ErrTruncatedBody) // stopped after a row
		case err == nil:
			err = errors.New("last line is not a trailer")
		}
		return fail(err)
	}
}

// decodeLine strictly decodes one line's JSON value into v.
func decodeLine(line []byte, v any) error {
	if len(line) == 0 {
		return errors.New("empty line")
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.InputOffset() != int64(len(line)) {
		return errors.New("data after the value")
	}
	return nil
}

func sweepDone(t SweepTrailer) bool { return t.Done }
func batchDone(t BatchTrailer) bool { return t.Done }

// ParseSweepBody reads a sweep body into its rows and trailer. A body
// cut short returns an error wrapping ErrTruncatedBody.
func ParseSweepBody(body []byte) ([]SweepRow, SweepTrailer, error) {
	return readBody[SweepRow]("sweep", body, sweepDone)
}

// ParseBatchBody reads a batch body into its rows and trailer. A body
// cut short returns an error wrapping ErrTruncatedBody.
func ParseBatchBody(body []byte) ([]BatchRow, BatchTrailer, error) {
	return readBody[BatchRow]("batch", body, batchDone)
}

// ParseConfigBody reads a /v1/config body: one sweep row.
func ParseConfigBody(body []byte) (SweepRow, error) {
	_, row, err := readBody[struct{}, SweepRow]("config", body, nil)
	return row, err
}

// check is a route's Check: the body must read as a whole.
func check[R, T any](what string, done func(T) bool) func([]byte) error {
	return func(body []byte) error {
		_, _, err := readBody[R](what, body, done)
		return err
	}
}
