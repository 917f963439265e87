// Command ecserved is the estimation service daemon: it serves the
// hierarchical bus models over HTTP/JSON with a content-addressed
// result cache, request dedup and bounded-queue backpressure.
//
// Usage:
//
//	ecserved                      # listen on 127.0.0.1:8372
//	ecserved -addr 127.0.0.1:0    # random port, printed on stdout
//	ecserved -workers 4 -queue 8  # 4 compute workers, queue depth 8
//	ecserved -cache 512           # cap the result cache at 512 entries
//	ecserved -timeout 30s         # default per-request compute deadline
//
// Multi-node serving: pass the other nodes' base URLs via -peers to
// join a cluster. Requests are routed to each content address's owner
// (rendezvous hashing), results are shared through a two-tier cache
// (local LRU, then peer fetch), and exhaustive sweeps are distributed
// work-stealing style across every live node:
//
//	ecserved -addr 127.0.0.1:8372 -peers http://127.0.0.1:8373
//	ecserved -addr 127.0.0.1:8373 -peers http://127.0.0.1:8372
//
// -self overrides the advertised URL when the listen address is not
// how peers reach this node; -probe tunes the health-probe interval.
//
// Endpoints: POST /v1/estimate, POST /v1/sweep, POST /v1/batch,
// POST /v1/config, GET /v1/jobs/{id}, GET /v1/jobs/{id}/result,
// GET /healthz, GET /metricz.
//
// SIGINT/SIGTERM drains gracefully: in-flight jobs finish and are
// delivered, new work is refused with 503.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8372", "listen address; port 0 picks a random free port")
	workers := flag.Int("workers", 0, "compute workers; 0 = one per CPU")
	queue := flag.Int("queue", 0, "job queue depth; 0 = 2x workers")
	cache := flag.Int("cache", 0, "result cache capacity in entries; 0 = 1024")
	timeout := flag.Duration("timeout", 0, "default per-request compute deadline; 0 = 1m")
	sweepWorkers := flag.Int("sweep-workers", 0, "workers inside each sweep job; 0 = one per CPU")
	peers := flag.String("peers", "", "comma-separated peer base URLs; non-empty joins a cluster")
	self := flag.String("self", "", "advertised base URL of this node; default http://<listen addr>")
	probe := flag.Duration("probe", 0, "peer health-probe interval; 0 = 250ms")
	flag.Parse()

	// A negative size or interval would silently become the default of
	// serve.New or the cluster.
	refuse := func(name string, v any, unit string) {
		fmt.Fprintf(os.Stderr, "ecserved: invalid -%s %v (0 = the default, or a positive %s)\n", name, v, unit)
		os.Exit(2)
	}
	names := []string{"workers", "queue", "cache", "sweep-workers"}
	for i, v := range []int{*workers, *queue, *cache, *sweepWorkers} {
		if v < 0 {
			refuse(names[i], v, "count")
		}
	}
	names = []string{"timeout", "probe"}
	for i, d := range []time.Duration{*timeout, *probe} {
		if d < 0 {
			refuse(names[i], d, "duration")
		}
	}

	if err := run(*addr, serve.Options{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cache,
		DefaultTimeout: *timeout,
		SweepWorkers:   *sweepWorkers,
	}, *peers, *self, *probe); err != nil {
		fmt.Fprintln(os.Stderr, "ecserved:", err)
		os.Exit(1)
	}
}

// splitPeers parses the -peers flag into a clean URL list.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func run(addr string, opts serve.Options, peers, self string, probe time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := serve.New(opts)
	handler := srv.Handler()

	var node *cluster.Node
	if peerList := splitPeers(peers); len(peerList) > 0 {
		if self == "" {
			self = "http://" + ln.Addr().String()
		}
		node = cluster.New(srv, cluster.Options{
			Self:          self,
			Peers:         peerList,
			ProbeInterval: probe,
		})
		handler = node.Handler()
		fmt.Printf("ecserved: cluster node %s, %d peer(s), version %s\n",
			self, len(peerList), cluster.VersionTag())
	}
	hs := &http.Server{Handler: handler}

	// The actual address matters when the caller asked for port 0; the
	// smoke test and scripts scrape it from this line.
	fmt.Printf("ecserved: listening on http://%s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() {
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		if node != nil {
			node.Close()
		}
		srv.Close()
		return err
	case sig := <-sigc:
		fmt.Printf("ecserved: %v, draining\n", sig)
	}

	// Stop accepting connections first, then drain the compute queue so
	// every accepted job's response is flushed before exit.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shutdownErr := hs.Shutdown(ctx)
	if node != nil {
		node.Close()
	}
	srv.Close()
	if err := <-errc; err != nil {
		return err
	}
	if shutdownErr != nil {
		return shutdownErr
	}
	fmt.Println("ecserved: drained, bye")
	return nil
}
