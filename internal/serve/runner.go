package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/bench"
	"repro/internal/explore"
)

// computeEstimate runs one corpus estimation point and renders the
// response body. The body is what the cache stores, so it must be a
// pure function of the canonical request — it is: the runner is
// deterministic and json.Marshal renders identical structs to
// identical bytes.
func computeEstimate(ctx context.Context, key string, c canonEstimate) ([]byte, error) {
	// The corpus runs are short (milliseconds); honoring the deadline
	// at entry keeps expired work from occupying a worker at all.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	est, err := bench.RunCorpusEstimate(c.Layer, c.Corpus, c.N, c.Plan)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp := EstimateResponse{
		Key:        key,
		Layer:      c.Layer,
		Corpus:     c.Corpus,
		N:          c.N,
		Fault:      c.Spec,
		Cycles:     est.Cycles,
		EnergyJ:    est.EnergyJ,
		EnergyBits: EnergyBits(est.EnergyJ),
		Errors:     est.Errors,
		Retries:    est.Retries,
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// EnergyBits renders a joule figure's IEEE-754 bit pattern as 16 hex
// digits — the representation the cache equivalence is asserted on.
func EnergyBits(e float64) string {
	return fmt.Sprintf("%016x", math.Float64bits(e))
}

// EnergyFromBits is the exact inverse of EnergyBits.
func EnergyFromBits(s string) (float64, error) {
	var bits uint64
	if _, err := fmt.Sscanf(s, "%16x", &bits); err != nil {
		return 0, fmt.Errorf("serve: bad energy bits %q: %w", s, err)
	}
	return math.Float64frombits(bits), nil
}

// computeSweep runs the design-space sweep under ctx and renders the
// NDJSON body: one SweepRow per configuration in deterministic
// cross-product order, then a SweepTrailer. Deterministic per-config
// failures are part of the content (they travel in the trailer and are
// cached); a cancelled or expired sweep is not cached at all, since
// its row set depends on timing. The exhaustive fidelity renders
// exactly as it always has; the screen and confirm fidelities add
// their accounting to the trailer.
func (s *Server) computeSweep(ctx context.Context, key string, c canonSweep) ([]byte, error) {
	opts := c.axes()
	opts.Workers = s.opts.SweepWorkers
	if c.Fidelity != explore.FidelityExhaustive {
		return s.computeSweepMultiFi(ctx, key, c, opts)
	}
	results, err := explore.SweepContext(ctx, opts, c.Layers, c.Orgs, c.Maps, c.Workloads)
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range results {
		if err := enc.Encode(exactRow(r)); err != nil {
			return nil, err
		}
	}
	trailer := SweepTrailer{Done: true, Key: key, Rows: len(results)}
	appendSweepErrors(&trailer, err)
	if err := enc.Encode(trailer); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// computeSweepMultiFi renders the screen and confirm fidelities. Screen
// streams every configuration's analytic prediction (Predicted set,
// exact-only counters zero); confirm streams the exact results of the
// pruning survivors. Both carry the screened/pruned/confirmed counts
// and the calibrated ε margins in the trailer, so pruning is never
// silent in the wire format either.
func (s *Server) computeSweepMultiFi(ctx context.Context, key string, c canonSweep, opts explore.SweepOpts) ([]byte, error) {
	mfOpts := explore.MultiFidelityOpts{
		SweepOpts:   opts,
		SkipConfirm: c.Fidelity == explore.FidelityScreen,
	}
	mf, err := explore.SweepMultiFidelityContext(ctx, mfOpts, c.Layers, c.Orgs, c.Maps, c.Workloads)
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	rows := 0
	if c.Fidelity == explore.FidelityScreen {
		for _, p := range mf.Screened {
			row := SweepRow{
				Workload:   p.Workload,
				Layer:      p.Layer,
				Org:        p.Org.String(),
				AddrMap:    p.AddrMap,
				Fault:      p.Fault,
				Arb:        p.Arb,
				Cycles:     uint64(math.Round(p.Cycles)),
				EnergyJ:    p.EnergyJ,
				EnergyBits: EnergyBits(p.EnergyJ),
				Predicted:  true,
				Kept:       p.Kept,
			}
			if err := enc.Encode(row); err != nil {
				return nil, err
			}
			rows++
		}
	} else {
		for _, r := range mf.Confirmed {
			if err := enc.Encode(exactRow(r)); err != nil {
				return nil, err
			}
			rows++
		}
	}
	trailer := SweepTrailer{
		Done:      true,
		Key:       key,
		Rows:      rows,
		Fidelity:  string(c.Fidelity),
		Screened:  mf.ScreenedConfigs,
		Pruned:    mf.PrunedConfigs,
		Confirmed: mf.ConfirmedConfigs,
		EpsEnergy: epsByLayer(mf.EpsEnergy),
		EpsCycles: epsByLayer(mf.EpsCycles),
	}
	appendSweepErrors(&trailer, err)
	if err := enc.Encode(trailer); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// exactRow renders one exact sweep result as its NDJSON row.
func exactRow(r explore.Result) SweepRow {
	row := SweepRow{
		Workload:   r.Workload,
		Layer:      r.Config.Layer,
		Org:        r.Config.Org.String(),
		AddrMap:    r.Config.AddrMap,
		Fault:      r.Config.Fault,
		Arb:        r.Config.Arb,
		Tear:       r.Config.Tear,
		Journal:    r.Config.Journal,
		Cycles:     r.Cycles,
		EnergyJ:    r.BusEnergyJ,
		EnergyBits: EnergyBits(r.BusEnergyJ),
		Tx:         r.Transactions,
		Retries:    r.Retries,
		Steps:      r.Steps,
		Torn:       r.Torn,
		CutCycle:   r.CutCycle,
		RecoveryJ:  r.RecoveryJ,
	}
	// The recovery figure gets the same bit-pattern treatment as the
	// energy total, but only when a replay actually ran — clean rows
	// must stay byte-identical to prior renderings.
	if r.RecoveryJ != 0 {
		row.RecoveryBits = EnergyBits(r.RecoveryJ)
	}
	return row
}

// epsByLayer renders the per-layer ε map with decimal string keys —
// JSON objects cannot key on integers.
func epsByLayer(in map[int]float64) map[string]float64 {
	if len(in) == 0 {
		return nil
	}
	out := make(map[string]float64, len(in))
	for l, v := range in {
		out[strconv.Itoa(l)] = v
	}
	return out
}

// appendSweepErrors flattens a sweep's errors.Join into trailer lines.
func appendSweepErrors(trailer *SweepTrailer, err error) {
	if err == nil {
		return
	}
	var joined interface{ Unwrap() []error }
	if errors.As(err, &joined) {
		for _, e := range joined.Unwrap() {
			trailer.Errors = append(trailer.Errors, e.Error())
		}
	} else {
		trailer.Errors = append(trailer.Errors, err.Error())
	}
}

// ErrTruncatedBody reports an NDJSON body that ended before its
// trailer: the stream is well-formed as far as it goes, it just stops.
// That is the signature of a cut-off transfer or a partially-written
// cached body — retryable from another source — whereas a syntax error
// inside the stream means corruption and fails fast. The cluster's
// peer-fetch layer branches on exactly this distinction.
var ErrTruncatedBody = errors.New("serve: truncated body (stream ended before trailer)")

// streamError classifies a decode failure: clean or mid-value EOF is
// truncation (the trailer never arrived), anything else is corruption.
func streamError(what string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("serve: bad %s stream: %w", what, ErrTruncatedBody)
	}
	return fmt.Errorf("serve: bad %s stream: %w", what, err)
}

// ParseSweepBody decodes a sweep NDJSON body back into rows and the
// trailer — the inverse of computeSweep's rendering, shared by the
// client and the tests. A body that ends without its trailer returns
// an error wrapping ErrTruncatedBody.
func ParseSweepBody(body []byte) ([]SweepRow, SweepTrailer, error) {
	var rows []SweepRow
	var trailer SweepTrailer
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return rows, trailer, streamError("sweep", err)
		}
		var probe struct {
			Done bool `json:"done"`
		}
		if json.Unmarshal(raw, &probe) == nil && probe.Done {
			if err := json.Unmarshal(raw, &trailer); err != nil {
				return rows, trailer, fmt.Errorf("serve: bad sweep trailer: %w", err)
			}
			return rows, trailer, nil
		}
		var row SweepRow
		if err := json.Unmarshal(raw, &row); err != nil {
			return rows, trailer, fmt.Errorf("serve: bad sweep row: %w", err)
		}
		rows = append(rows, row)
	}
}
