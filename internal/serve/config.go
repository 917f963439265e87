package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/calib"
	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/javacard"
	"repro/internal/journal"
	"repro/internal/tear"
)

// POST /v1/config: one sweep configuration — the work-stealing unit of
// a distributed sweep. A cluster coordinator splits an exhaustive
// /v1/sweep into its cross product and fans the configurations out to
// peer nodes as /v1/config requests; each peer computes (or replays)
// its row through the same singleflight/cache/queue machinery as every
// other endpoint. The response body is exactly the NDJSON line the
// configuration contributes to a single-node sweep body, so the
// coordinator reassembles a byte-identical sweep by concatenation.

// ConfigRequest is the body of POST /v1/config.
type ConfigRequest struct {
	Workload   string `json:"workload"`
	Layer      int    `json:"layer"`
	Org        string `json:"org"`
	AddrMap    string `json:"addr_map"`
	Fault      string `json:"fault,omitempty"`
	Arb        string `json:"arb,omitempty"`
	Tear       string `json:"tear,omitempty"`
	Journal    string `json:"journal,omitempty"`
	DeadlineMs int64  `json:"deadline_ms,omitempty"`
}

// canonConfig is a validated configuration with every axis element
// resolved against its vocabulary.
type canonConfig struct {
	Workload javacard.Workload
	Layer    int
	Org      javacard.Organization
	AddrMap  string
	Fault    string
	Arb      string
	Tear     string
	Journal  string
}

func canonicalizeConfig(req ConfigRequest) (canonConfig, error) {
	c := canonConfig{Layer: req.Layer}
	org, ok := OrgByName(req.Org)
	if !ok {
		return c, fmt.Errorf("serve: unknown organization %q", req.Org)
	}
	c.Org = org
	if _, ok := explore.BaseForMap(req.AddrMap); !ok {
		return c, fmt.Errorf("serve: unknown address map %q", req.AddrMap)
	}
	c.AddrMap = req.AddrMap
	if req.Fault != "" {
		if _, ok := fault.Named(req.Fault); !ok {
			return c, fmt.Errorf("serve: unknown fault plan %q (valid plans: %s)", req.Fault, strings.Join(fault.Names, ", "))
		}
	}
	c.Fault = req.Fault
	if req.Arb != "" {
		arbs, err := explore.ParseArbs(req.Arb)
		if err != nil || len(arbs) != 1 {
			return c, fmt.Errorf("serve: unknown arbitration policy %q", req.Arb)
		}
		c.Arb = arbs[0]
	}
	if req.Tear != "" {
		tears, err := explore.ParseTears(req.Tear)
		if err != nil || len(tears) != 1 {
			return c, fmt.Errorf("serve: unknown tear plan %q (valid plans: %s)",
				req.Tear, strings.Join(tear.Names, ", "))
		}
		c.Tear = tears[0]
	}
	if req.Journal != "" {
		journals, err := explore.ParseJournals(req.Journal)
		if err != nil || len(journals) != 1 {
			return c, fmt.Errorf("serve: unknown journal strategy %q (valid strategies: %s)",
				req.Journal, strings.Join(journal.Names, ", "))
		}
		c.Journal = journals[0]
	}
	if err := explore.Valid(explore.Config{Layer: c.Layer, Arb: c.Arb, Tear: c.Tear, Journal: c.Journal}); err != nil {
		return c, fmt.Errorf("serve: %w", err)
	}
	found := false
	for _, w := range javacard.Workloads() {
		if w.Name == req.Workload {
			c.Workload, found = w, true
			break
		}
	}
	if !found {
		return c, fmt.Errorf("serve: unknown workload %q", req.Workload)
	}
	return c, nil
}

// hashWorkload folds a workload's assembled program bytes into h — the
// "workload bytes" component shared by the sweep and config addresses.
func hashWorkload(h interface{ Write([]byte) (int, error) }, w javacard.Workload) {
	prog := w.Program()
	fmt.Fprintf(h, "workload=%s\x00main=%d\x00", w.Name, len(prog.Main))
	h.Write(prog.Main)
	for _, m := range prog.Methods {
		fmt.Fprintf(h, "method=%d\x00", len(m.Code))
		h.Write(m.Code)
	}
	fmt.Fprintf(h, "statics=%d\x00", prog.Statics)
}

// key content-addresses one configuration row. calib.Version is folded
// in because layer-3 rows are functions of the fitted model; both code
// versions guard the cluster against mixed-version peers exchanging
// bytes that would not be bit-identical.
func (c canonConfig) key() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00config\x00%s\x00layer=%d\x00org=%s\x00map=%s\x00fault=%s\x00arb=%s\x00tear=%s\x00journal=%s\x00",
		Version, calib.Version, c.Layer, c.Org.String(), c.AddrMap, c.Fault, c.Arb, c.Tear, c.Journal)
	hashWorkload(h, c.Workload)
	return hex.EncodeToString(h.Sum(nil))
}

// computeConfig evaluates one configuration through the sweep engine
// and renders its NDJSON row — byte-identical to the line the same
// configuration contributes inside a full sweep body.
func computeConfig(ctx context.Context, c canonConfig) ([]byte, error) {
	var faults, arbs, tears, journals []string
	if c.Fault != "" {
		faults = []string{c.Fault}
	}
	if c.Arb != "" {
		arbs = []string{c.Arb}
	}
	if c.Tear != "" {
		tears = []string{c.Tear}
	}
	if c.Journal != "" {
		journals = []string{c.Journal}
	}
	results, err := explore.SweepContext(ctx,
		explore.SweepOpts{Workers: 1, Faults: faults, Arbs: arbs, Tears: tears, Journals: journals},
		[]int{c.Layer}, []javacard.Organization{c.Org}, []string{c.AddrMap}, []javacard.Workload{c.Workload})
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	if err != nil {
		return nil, err
	}
	if len(results) != 1 {
		return nil, fmt.Errorf("serve: config run produced %d results, want 1", len(results))
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(exactRow(results[0])); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (s *Server) handleConfig(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.reg.Request("config")
	var req ConfigRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		respondError(w, http.StatusBadRequest, fmt.Errorf("serve: bad request body: %w", err))
		return
	}
	c, err := canonicalizeConfig(req)
	if err != nil {
		respondError(w, http.StatusBadRequest, err)
		return
	}
	key := c.key()
	body, outcome, status, err := s.schedule(r.Context(), "config", key, req.DeadlineMs,
		func(ctx context.Context) ([]byte, error) { return computeConfig(ctx, c) })
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		s.reg.Rejected(status)
	}
	if err != nil {
		respondError(w, status, err)
		return
	}
	s.reg.Outcome("config", outcome, uint64(time.Since(start).Microseconds()))
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Cache", outcome.String())
	w.Header().Set("X-Key", key)
	w.Write(body)
}

// ConfigBodyInline computes (or replays) one configuration row on the
// caller's goroutine through the singleflight cache — the self lane of
// the cluster's work-stealing loop. The returned bytes are the same
// NDJSON line /v1/config serves.
func (s *Server) ConfigBodyInline(ctx context.Context, req ConfigRequest) ([]byte, error) {
	c, err := canonicalizeConfig(req)
	if err != nil {
		return nil, err
	}
	body, outcome, err := s.DoInline(ctx, c.key(),
		func(cctx context.Context) ([]byte, error) { return computeConfig(cctx, c) })
	if err != nil {
		return nil, err
	}
	s.reg.Outcome("config", outcome, 0)
	return body, nil
}

// Exported content-address helpers: the cluster router computes a
// request's key to drive the two-tier cache and consistent-hash
// ownership without re-implementing canonicalization. Each returns the
// same 400-class error its endpoint would answer for an invalid
// request.

// EstimateKey canonicalizes req and returns its content address.
func EstimateKey(req EstimateRequest) (string, error) {
	c, err := canonicalizeEstimate(req)
	if err != nil {
		return "", err
	}
	return c.key(), nil
}

// SweepKey canonicalizes req and returns its content address.
func SweepKey(req SweepRequest) (string, error) {
	c, err := canonicalizeSweep(req)
	if err != nil {
		return "", err
	}
	return c.key(), nil
}

// BatchKey canonicalizes req and returns its content address.
func BatchKey(req BatchRequest) (string, error) {
	c, err := canonicalizeBatch(req)
	if err != nil {
		return "", err
	}
	return c.key(), nil
}

// ConfigKey canonicalizes req and returns its content address.
func ConfigKey(req ConfigRequest) (string, error) {
	c, err := canonicalizeConfig(req)
	if err != nil {
		return "", err
	}
	return c.key(), nil
}

// ExpandSweep canonicalizes a sweep request and enumerates its cross
// product as ConfigRequests in exactly the order the rows appear in a
// single-node sweep body: workloads outer, then explore.Configs' order.
// The coordinator fans these out and reassembles the body by
// concatenating the returned rows in this order, then appending the
// trailer.
func ExpandSweep(req SweepRequest) (key string, configs []ConfigRequest, err error) {
	c, err := canonicalizeSweep(req)
	if err != nil {
		return "", nil, err
	}
	cfgs := explore.Configs(c.axes(), c.Layers, c.Orgs, c.Maps)
	for _, w := range c.Workloads {
		for _, cfg := range cfgs {
			configs = append(configs, ConfigRequest{
				Workload:   w.Name,
				Layer:      cfg.Layer,
				Org:        cfg.Org.String(),
				AddrMap:    cfg.AddrMap,
				Fault:      cfg.Fault,
				Arb:        cfg.Arb,
				Tear:       cfg.Tear,
				Journal:    cfg.Journal,
				DeadlineMs: req.DeadlineMs,
			})
		}
	}
	return c.key(), configs, nil
}

// SweepTrailerLine renders the trailer line that closes a distributed
// exhaustive sweep body — identical bytes to the trailer a single-node
// error-free sweep of the same axes appends.
func SweepTrailerLine(key string, rows int) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(SweepTrailer{Done: true, Key: key, Rows: rows}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ComputeSweepBody computes a full sweep body locally, outside the
// cache/queue — the coordinator's fallback when a distributed fan-out
// cannot complete (a configuration failed deterministically, every
// peer died). The bytes are exactly what a single-node compute of the
// same request produces.
func (s *Server) ComputeSweepBody(ctx context.Context, req SweepRequest) ([]byte, error) {
	c, err := canonicalizeSweep(req)
	if err != nil {
		return nil, err
	}
	return s.computeSweep(ctx, c.key(), c)
}
