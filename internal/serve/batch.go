package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/batch"
	"repro/internal/bench"
	"repro/internal/fault"
)

// POST /v1/batch: batched whole-campaign estimation. One request asks
// for R independent random corpus runs (a campaign) through one layer
// and fault plan, executed by the bit-parallel batch engine; the
// response streams one NDJSON row per run. The lane width tunes only
// throughput — per-run results are width-invariant by the engine's
// golden gate — so the content address deliberately EXCLUDES it:
// requests differing only in width share one cache entry.

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	// Layer selects the abstraction level: 0 (gate level) or 1 (TL1);
	// the batch engine does not model TL2.
	Layer int `json:"layer"`
	// Seed parameterizes the campaign's random stimuli; default 1.
	Seed uint64 `json:"seed,omitempty"`
	// Runs is the campaign size; <= 0 selects 64, capped at 1024.
	Runs int `json:"runs,omitempty"`
	// N is the per-run transaction count; <= 0 selects
	// bench.DefaultPerfN, capped at 4096.
	N int `json:"n,omitempty"`
	// Fault is a named fault plan or key=value spec; empty = clean.
	Fault string `json:"fault,omitempty"`
	// Width is the lane width; <= 0 selects batch.MaxWidth. Widths
	// beyond the campaign size are capped at Runs. Width does not
	// affect results, only compute speed, and is not part of the key.
	Width int `json:"width,omitempty"`
	// DeadlineMs bounds the compute; 0 uses the server default.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// BatchRow is one campaign run's outcome in the NDJSON stream.
type BatchRow struct {
	Run        int     `json:"run"`
	Cycles     uint64  `json:"cycles"`
	EnergyJ    float64 `json:"energy_j"`
	EnergyBits string  `json:"energy_bits"`
	Errors     int     `json:"errors"`
	Retries    int     `json:"retries"`
}

// BatchTrailer is the final NDJSON line of a batch response.
type BatchTrailer struct {
	Done  bool   `json:"done"`
	Key   string `json:"key"`
	Layer int    `json:"layer"`
	Fault string `json:"fault,omitempty"`
	Rows  int    `json:"rows"`
}

// canonBatch is a validated batch request with defaults applied.
type canonBatch struct {
	Layer int
	Seed  uint64
	Runs  int
	N     int
	Plan  fault.Plan
	Spec  string
	Width int
}

// Campaign-size limits: a maximal request is ~4M transactions, well
// within the default one-minute compute deadline.
const (
	maxBatchRuns = 1024
	maxBatchN    = 4096
)

func canonicalizeBatch(req BatchRequest) (canonBatch, error) {
	c := canonBatch{Layer: req.Layer, Seed: req.Seed, Runs: req.Runs, N: req.N, Width: req.Width}
	if c.Layer < 0 || c.Layer > 1 {
		return c, fmt.Errorf("serve: unsupported batch layer %d (valid layers: 0, 1)", c.Layer)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Runs <= 0 {
		c.Runs = 64
	}
	if c.Runs > maxBatchRuns {
		return c, fmt.Errorf("serve: batch runs %d exceeds limit %d", c.Runs, maxBatchRuns)
	}
	if c.N <= 0 {
		c.N = bench.DefaultPerfN
	}
	if c.N > maxBatchN {
		return c, fmt.Errorf("serve: batch n %d exceeds limit %d", c.N, maxBatchN)
	}
	if c.Width <= 0 {
		c.Width = batch.MaxWidth
	}
	if c.Width > batch.MaxWidth {
		return c, fmt.Errorf("serve: batch width %d exceeds limit %d", c.Width, batch.MaxWidth)
	}
	if c.Width > c.Runs {
		c.Width = c.Runs // wider than the campaign buys nothing
	}
	plan, err := fault.Parse(strings.TrimSpace(req.Fault))
	if err != nil {
		return c, fmt.Errorf("serve: %w", err)
	}
	c.Plan, c.Spec = plan, plan.Spec()
	return c, nil
}

// key content-addresses the campaign by its request: the corpus is a
// pure function of (seed, runs, n), so keying a campaign generates none
// of it — TestCampaignCorpusPinned holds bench.CampaignRuns to the bytes
// this Version was cut with, so a generator change must move Version.
// Width is deliberately absent: the engine's golden gate makes per-run
// results width-invariant, so all widths of the same campaign share one
// cache entry.
func (c canonBatch) key() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00batch\x00layer=%d\x00seed=%d\x00runs=%d\x00n=%d\x00fault=%s\x00",
		Version, c.Layer, c.Seed, c.Runs, c.N, c.Spec)
	return hex.EncodeToString(h.Sum(nil))
}

// computeBatch runs the campaign through the batch engine and renders
// the NDJSON body: one BatchRow per run, then a BatchTrailer. Like the
// other computes, the body is a pure function of the canonical request
// minus the width — which is exactly the cache-key contract.
func (s *Server) computeBatch(ctx context.Context, key string, c canonBatch) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ests, err := bench.CampaignEstimate(c.Layer, c.Seed, c.Runs, c.N, c.Plan, c.Width)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rows := make([]BatchRow, len(ests))
	for i, e := range ests {
		rows[i] = BatchRow{
			Run:        i,
			Cycles:     e.Cycles,
			EnergyJ:    e.EnergyJ,
			EnergyBits: EnergyBits(e.EnergyJ),
			Errors:     e.Errors,
			Retries:    e.Retries,
		}
	}
	return writeBody(rows, BatchTrailer{Done: true, Key: key, Layer: c.Layer, Fault: c.Spec, Rows: len(ests)})
}
