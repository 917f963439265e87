package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

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

// campaignGen is the corpus generator behind campaignDigest — a seam
// the memoization test swaps to count generator invocations.
var campaignGen = bench.CampaignRuns

// campaignKey identifies one deterministic campaign corpus.
type campaignKey struct {
	seed    uint64
	runs, n int
}

const maxCampaignDigests = 128

// campaignDigests memoizes corpus digests per (seed, runs, n): the
// corpus is a pure function of those three numbers, so hashing the
// generated transaction bytes once is enough. Otherwise every
// /v1/batch request — cache hits included — would regenerate the
// entire campaign (up to 1024×4096 transactions) to compute its key.
var campaignDigests = newMemo[campaignKey, [sha256.Size]byte](maxCampaignDigests)

// campaignDigest returns the SHA-256 digest of the campaign's
// generated transaction bytes, generating the corpus only on the first
// request for a given (seed, runs, n).
func campaignDigest(seed uint64, runs, n int) [sha256.Size]byte {
	return campaignDigests.get(campaignKey{seed, runs, n}, func() [sha256.Size]byte {
		h := sha256.New()
		for _, run := range campaignGen(seed, runs, n) {
			h.Write(itemBytes(run.Items))
		}
		var d [sha256.Size]byte
		h.Sum(d[:0])
		return d
	})
}

// key content-addresses the campaign. Width is deliberately absent:
// the engine's golden gate makes per-run results width-invariant, so
// all widths of the same campaign share one cache entry. The campaign
// identity is a digest of the actual generated transaction bytes, not
// just (seed, runs, n), so a corpus-generator change changes the
// address; the digest is memoized so the key of a repeated campaign
// costs O(1) instead of a full corpus generation.
func (c canonBatch) key() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00batch\x00layer=%d\x00seed=%d\x00runs=%d\x00n=%d\x00fault=%s\x00",
		Version, c.Layer, c.Seed, c.Runs, c.N, c.Spec)
	d := campaignDigest(c.Seed, c.Runs, c.N)
	h.Write(d[:])
	return hex.EncodeToString(h.Sum(nil))
}

// computeBatch runs the campaign through the batch engine and renders
// the NDJSON body: one BatchRow per run, then a BatchTrailer. Like the
// other computes, the body is a pure function of the canonical request
// minus the width — which is exactly the cache-key contract.
func computeBatch(ctx context.Context, key string, c canonBatch) ([]byte, error) {
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
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, e := range ests {
		row := BatchRow{
			Run:        i,
			Cycles:     e.Cycles,
			EnergyJ:    e.EnergyJ,
			EnergyBits: EnergyBits(e.EnergyJ),
			Errors:     e.Errors,
			Retries:    e.Retries,
		}
		if err := enc.Encode(row); err != nil {
			return nil, err
		}
	}
	trailer := BatchTrailer{Done: true, Key: key, Layer: c.Layer, Fault: c.Spec, Rows: len(ests)}
	if err := enc.Encode(trailer); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ParseBatchBody decodes a batch NDJSON body back into rows and the
// trailer — the inverse of computeBatch's rendering. A body that ends
// without its trailer returns an error wrapping ErrTruncatedBody.
func ParseBatchBody(body []byte) ([]BatchRow, BatchTrailer, error) {
	var rows []BatchRow
	var trailer BatchTrailer
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return rows, trailer, streamError("batch", err)
		}
		var probe struct {
			Done bool `json:"done"`
		}
		if json.Unmarshal(raw, &probe) == nil && probe.Done {
			if err := json.Unmarshal(raw, &trailer); err != nil {
				return rows, trailer, fmt.Errorf("serve: bad batch trailer: %w", err)
			}
			return rows, trailer, nil
		}
		var row BatchRow
		if err := json.Unmarshal(raw, &row); err != nil {
			return rows, trailer, fmt.Errorf("serve: bad batch row: %w", err)
		}
		rows = append(rows, row)
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.reg.Request("batch")
	var req BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		respondError(w, http.StatusBadRequest, fmt.Errorf("serve: bad request body: %w", err))
		return
	}
	c, err := canonicalizeBatch(req)
	if err != nil {
		respondError(w, http.StatusBadRequest, err)
		return
	}
	key := c.key()
	body, outcome, status, err := s.schedule(r.Context(), "batch", key, req.DeadlineMs,
		func(ctx context.Context) ([]byte, error) { return computeBatch(ctx, key, c) })
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		s.reg.Rejected(status)
	}
	if err != nil {
		respondError(w, status, err)
		return
	}
	s.reg.Outcome("batch", outcome, uint64(time.Since(start).Microseconds()))
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Cache", outcome.String())
	w.Header().Set("X-Key", key)
	w.Write(body)
}

// Batch posts one batched-campaign request and decodes the NDJSON
// stream. The returned cache string is the server's X-Cache verdict.
func (c *Client) Batch(ctx context.Context, req BatchRequest) ([]BatchRow, BatchTrailer, string, error) {
	resp, err := c.post(ctx, "/v1/batch", req)
	if err != nil {
		return nil, BatchTrailer{}, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, BatchTrailer{}, "", apiError(resp)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, BatchTrailer{}, "", err
	}
	rows, trailer, err := ParseBatchBody(body)
	return rows, trailer, resp.Header.Get("X-Cache"), err
}
