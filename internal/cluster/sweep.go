package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/explore"
	"repro/internal/serve"
)

// distributes reports whether a sweep that missed every cache tier is
// fanned out from here. Async sweeps never reach this point, and the
// multi-fidelity sweeps compute locally: their pruning decisions are
// global, not per-configuration.
func (n *Node) distributes(req *serve.SweepRequest) bool {
	exhaustive := req.Fidelity == "" || req.Fidelity == string(explore.FidelityExhaustive)
	return exhaustive && len(n.alivePeers()) > 0
}

// distributedSweep coordinates an exhaustive sweep's fan-out. The
// assembly runs under the sweep key through the server's own
// singleflight/queue machinery, so concurrent identical sweeps dedup
// onto one fan-out, backpressure still answers 429/503, and the
// assembled body lands in the local cache tier like any other result.
func (n *Node) distributedSweep(w http.ResponseWriter, r *http.Request, rt serve.Route,
	req serve.Request, sweep serve.SweepRequest) {
	start := time.Now()
	n.reg().Request(rt.Name)
	body, outcome, status, err := n.srv.Do(r.Context(), rt.Name, req.Key, req.DeadlineMs,
		func(ctx context.Context) ([]byte, error) { return n.sweepBody(ctx, sweep) })
	if err != nil {
		serve.RespondError(w, status, err)
		return
	}
	n.reg().Outcome(rt.Name, outcome, uint64(time.Since(start).Microseconds()))
	n.writeBody(w, rt, req.Key, outcome.String(), n.opts.Self, body)
}

// sweepBody computes an exhaustive sweep's bytes by work stealing: the
// configurations sit in one shared queue, and lanes — local workers
// computing inline plus per-peer fetch lanes — pull from it at
// whatever rate they can sustain, so a fast node simply takes more of
// the work. A configuration held by a lane that fails is requeued for
// the others (counted in /metricz), which is the no-lost-work
// guarantee: a peer dying mid-sweep costs time, not configurations.
// Rows are rendered in cross-product order under the standard trailer
// by serve.SweepBody, making the body byte-identical to a single-node
// compute. Any deterministic per-configuration failure aborts the
// fan-out and falls back to a full local compute, whose error
// rendering (errors in the trailer) is again byte-identical.
func (n *Node) sweepBody(ctx context.Context, req serve.SweepRequest) ([]byte, error) {
	key, configs, err := serve.ExpandSweep(req)
	if err != nil {
		return nil, err
	}
	rows := make([]serve.SweepRow, len(configs))
	queue := make(chan int, len(configs))
	for i := range configs {
		queue <- i
	}
	var remaining atomic.Int64
	remaining.Store(int64(len(configs)))
	done := make(chan struct{})
	fallback := make(chan error, 1)
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()

	finish := func(idx int, row serve.SweepRow) {
		rows[idx] = row
		if remaining.Add(-1) == 0 {
			close(done)
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < n.opts.SelfConcurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				var idx int
				select {
				case <-wctx.Done():
					return
				case <-done:
					return
				case idx = <-queue:
				}
				row, err := n.srv.ConfigRowInline(wctx, configs[idx])
				if err != nil {
					// First failure wins; the coordinator falls back to a
					// full local sweep so deterministic errors render
					// exactly as a single node would render them.
					select {
					case fallback <- err:
					default:
					}
					return
				}
				finish(idx, row)
			}
		}()
	}
	for _, peer := range n.alivePeers() {
		for i := 0; i < n.opts.PeerConcurrency; i++ {
			wg.Add(1)
			go func(peer string) {
				defer wg.Done()
				for {
					var idx int
					select {
					case <-wctx.Done():
						return
					case <-done:
						return
					case idx = <-queue:
					}
					row, retryable, err := n.fetchConfig(wctx, peer, configs[idx])
					if err != nil {
						// The held configuration goes back in the queue
						// either way — never lost. A busy peer keeps its
						// lane (it will drain); a dead one retires it.
						n.reg().Requeue(1)
						queue <- idx
						if retryable {
							select {
							case <-wctx.Done():
								return
							case <-time.After(10 * time.Millisecond):
							}
							continue
						}
						n.reg().PeerError()
						n.markDead(peer)
						return
					}
					finish(idx, row)
				}
			}(peer)
		}
	}

	select {
	case <-done:
		cancel()
		wg.Wait()
	case err := <-fallback:
		cancel()
		wg.Wait()
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		_ = err // deterministic failure: the local sweep re-derives and renders it
		return n.srv.ComputeSweepBody(ctx, req)
	case <-ctx.Done():
		cancel()
		wg.Wait()
		return nil, ctx.Err()
	}

	return serve.SweepBody(key, rows)
}

// fetchConfig asks a peer for one configuration row, read through the
// strict body reader. retryable=true marks peer backpressure (429/503):
// the lane requeues and tries again. Everything else — network errors,
// malformed rows, 5xx — retires the lane and the configuration is
// requeued for others.
func (n *Node) fetchConfig(ctx context.Context, peer string, cfg serve.ConfigRequest) (row serve.SweepRow, retryable bool, err error) {
	payload, err := json.Marshal(cfg)
	if err != nil {
		return row, false, err
	}
	resp, peerBody, err := n.forward(ctx, peer, "/v1/config", payload)
	if err != nil {
		return row, false, err
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		if row, err = serve.ParseConfigBody(peerBody); err != nil {
			return row, false, err
		}
		n.reg().PeerFetch()
		return row, false, nil
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		return row, true, fmt.Errorf("cluster: peer %s backpressure: %d", peer, resp.StatusCode)
	default:
		return row, false, fmt.Errorf("cluster: peer %s config status %d", peer, resp.StatusCode)
	}
}
