package serve

import (
	"context"
	"errors"
	"strconv"

	"repro/internal/bench"
	"repro/internal/explore"
)

// computeEstimate runs one corpus estimation point and renders the
// response body. The body is what the cache stores, so it must be a
// pure function of the canonical request — it is: the runner is
// deterministic and identical structs render to identical bytes.
func (s *Server) computeEstimate(ctx context.Context, key string, c canonEstimate) ([]byte, error) {
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
	return writeBody[struct{}](nil, EstimateResponse{
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
	})
}

// computeSweep runs the design-space sweep under ctx and renders the
// NDJSON body: one SweepRow per configuration in deterministic
// cross-product order, then a SweepTrailer. Deterministic per-config
// failures are part of the content (they travel in the trailer and are
// cached); a cancelled or expired sweep is not cached at all, since
// its row set depends on timing. The exhaustive fidelity streams exact
// results. Screen streams every configuration's analytic prediction;
// confirm streams the exact results of the pruning survivors. Both
// carry the screened/pruned/confirmed counts and the calibrated ε
// margins in the trailer, so pruning is never silent in the wire
// format either.
func (s *Server) computeSweep(ctx context.Context, key string, c canonSweep) ([]byte, error) {
	opts := c.Opts
	opts.Workers = s.opts.SweepWorkers
	trailer := SweepTrailer{Done: true, Key: key}
	var rows []SweepRow
	var err error
	if c.Fidelity == explore.FidelityExhaustive {
		var results []explore.Result
		results, err = explore.SweepContext(ctx, opts, c.Layers, c.Orgs, c.Maps, c.Workloads)
		rows = rowsOf(results, exactRow)
	} else {
		mfOpts := explore.MultiFidelityOpts{SweepOpts: opts, SkipConfirm: c.Fidelity == explore.FidelityScreen}
		var mf explore.MultiFidelityResult
		mf, err = explore.SweepMultiFidelityContext(ctx, mfOpts, c.Layers, c.Orgs, c.Maps, c.Workloads)
		if c.Fidelity == explore.FidelityScreen {
			rows = rowsOf(mf.Screened, predictedRow)
		} else {
			rows = rowsOf(mf.Confirmed, exactRow)
		}
		trailer.Fidelity = string(c.Fidelity)
		trailer.Screened, trailer.Pruned, trailer.Confirmed = mf.ScreenedConfigs, mf.PrunedConfigs, mf.ConfirmedConfigs
		trailer.EpsEnergy, trailer.EpsCycles = epsByLayer(mf.EpsEnergy), epsByLayer(mf.EpsCycles)
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	trailer.Rows = len(rows)
	appendSweepErrors(&trailer, err)
	return writeBody(rows, trailer)
}

// rowsOf renders each outcome as its sweep row.
func rowsOf[T any](outcomes []T, row func(T) SweepRow) []SweepRow {
	rows := make([]SweepRow, len(outcomes))
	for i, o := range outcomes {
		rows[i] = row(o)
	}
	return rows
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
