package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/calib"
	"repro/internal/explore"
	"repro/internal/javacard"
)

// POST /v1/config: one sweep configuration — the work-stealing unit of
// a distributed sweep. A cluster coordinator splits an exhaustive
// /v1/sweep into its cross product and fans the configurations out to
// peer nodes as /v1/config requests; each peer computes (or replays)
// its row through the same singleflight/cache/queue machinery as every
// other endpoint. The response body is exactly the NDJSON line the
// configuration contributes to a single-node sweep body, so the
// coordinator reassembles a byte-identical sweep from the rows.

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
	explore.Config
	Workload javacard.Workload
}

func canonicalizeConfig(req ConfigRequest) (canonConfig, error) {
	c := canonConfig{Config: explore.Config{Layer: req.Layer, AddrMap: req.AddrMap,
		Fault: req.Fault, Arb: req.Arb, Tear: req.Tear, Journal: req.Journal}}
	org, ok := OrgByName(req.Org)
	if !ok {
		return c, fmt.Errorf("serve: unknown organization %q", req.Org)
	}
	c.Org = org
	if _, ok := explore.BaseForMap(req.AddrMap); !ok {
		return c, fmt.Errorf("serve: unknown address map %q", req.AddrMap)
	}
	for _, ax := range explore.Axes {
		v, err := ax.Canon(*ax.Field(&c.Config))
		if err != nil {
			return c, fmt.Errorf("serve: %w", err)
		}
		*ax.Field(&c.Config) = v
	}
	if err := explore.Valid(c.Config); err != nil {
		return c, fmt.Errorf("serve: %w", err)
	}
	if c.Workload, ok = javacard.WorkloadByName(req.Workload); !ok {
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
	fmt.Fprintf(h, "%s\x00config\x00%s\x00layer=%d\x00org=%s\x00map=%s\x00",
		Version, calib.Version, c.Layer, c.Org.String(), c.AddrMap)
	for _, ax := range explore.Axes {
		fmt.Fprintf(h, "%s=%s\x00", ax.Name, *ax.Field(&c.Config))
	}
	hashWorkload(h, c.Workload)
	return hex.EncodeToString(h.Sum(nil))
}

// computeConfig evaluates one configuration through the sweep engine
// and renders its NDJSON row — byte-identical to the line the same
// configuration contributes inside a full sweep body.
func (s *Server) computeConfig(ctx context.Context, _ string, c canonConfig) ([]byte, error) {
	opts := explore.SweepOpts{Workers: 1}
	for _, ax := range explore.Axes {
		if v := *ax.Field(&c.Config); v != "" {
			*ax.List(&opts) = []string{v}
		}
	}
	results, err := explore.SweepContext(ctx, opts,
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
	return writeBody[SweepRow](nil, exactRow(results[0]))
}

// ConfigRowInline computes (or replays) one configuration row on the
// caller's goroutine through the singleflight cache — the self lane of
// the cluster's work-stealing loop. The row is read back from the same
// body /v1/config serves.
func (s *Server) ConfigRowInline(ctx context.Context, req ConfigRequest) (SweepRow, error) {
	c, err := canonicalizeConfig(req)
	if err != nil {
		return SweepRow{}, err
	}
	key := c.key()
	body, outcome, err := s.DoInline(ctx, key,
		func(cctx context.Context) ([]byte, error) { return s.computeConfig(cctx, key, c) })
	if err != nil {
		return SweepRow{}, err
	}
	s.reg.Outcome("config", outcome, 0)
	return ParseConfigBody(body)
}

// ExpandSweep canonicalizes a sweep request and enumerates its cross
// product as ConfigRequests in exactly the order the rows appear in a
// single-node sweep body: workloads outer, then explore.Configs' order.
// The coordinator fans these out and renders the returned rows, in this
// order, through SweepBody.
func ExpandSweep(req SweepRequest) (key string, configs []ConfigRequest, err error) {
	c, err := canonicalizeSweep(req)
	if err != nil {
		return "", nil, err
	}
	cfgs := explore.Configs(c.Opts, c.Layers, c.Orgs, c.Maps)
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
