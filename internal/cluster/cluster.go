// Package cluster scales the estimation service to multiple nodes. It
// wraps a serve.Server with a routing layer that turns the existing
// SHA-256 content address of every request into a shard key:
// rendezvous (highest-random-weight) hashing over the live node set
// picks each key's owner, so identical requests from any entry node
// converge on one compute and one cache entry.
//
// The cache becomes two-tier: a request is answered from the local LRU
// if the bytes are already here, else fetched from the owning peer
// (and inserted locally, so the bytes replay from here on), else
// computed. Because results are content-addressed bytes of a
// deterministic computation, a body computed anywhere is replayed
// byte-for-byte everywhere; forwarded responses are copied verbatim,
// never re-rendered, and both code versions (serve and calibration)
// ride in every peer request so mixed-version nodes refuse each
// other's bytes instead of mixing them.
//
// Exhaustive sweeps are additionally distributed: the owner splits the
// cross product into per-configuration /v1/config requests and fans
// them out work-stealing style across itself and every live peer (see
// sweep.go). Membership is a static peer list plus health probes — a
// dead peer drops out of the ownership set and its in-flight
// configurations are requeued, so a node dying mid-sweep delays the
// sweep instead of failing it.
package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/calib"
	"repro/internal/metrics"
	"repro/internal/serve"
)

// Peer-protocol headers. Forward marks a request already routed once —
// the receiver serves it locally, which bounds any route to one hop.
// Version carries both code versions; a mismatch answers 412 and the
// sender falls back to computing locally.
const (
	forwardHeader = "X-EC-Forward"
	versionHeader = "X-EC-Version"
	nodeHeader    = "X-EC-Node"
)

// VersionTag is the compatibility stamp exchanged between peers. Both
// components are already folded into every content hash, so agreeing
// on the tag is exactly agreeing on the address space.
func VersionTag() string { return serve.Version + "+" + calib.Version }

// Options tunes a cluster node.
type Options struct {
	// Self is this node's advertised base URL (how peers reach it).
	Self string
	// Peers are the other nodes' base URLs — the static membership.
	Peers []string
	// ProbeInterval paces the health prober; <= 0 selects 250ms.
	ProbeInterval time.Duration
	// FailThreshold is the consecutive probe failures that mark a peer
	// dead; <= 0 selects 2. A hard connection error on a real request
	// marks the peer dead immediately.
	FailThreshold int
	// SelfConcurrency is the local lane width of a distributed sweep;
	// <= 0 selects runtime.GOMAXPROCS(0).
	SelfConcurrency int
	// PeerConcurrency is the per-peer lane width of a distributed
	// sweep; <= 0 selects 4.
	PeerConcurrency int
}

// probeTimeout bounds one health probe.
const probeTimeout = time.Second

// Node is one member of the estimation cluster: a serve.Server plus
// the routing, peer-cache and work-stealing layers.
type Node struct {
	srv    *serve.Server
	opts   Options
	peers  []string // normalized, self excluded
	mux    *http.ServeMux
	client *http.Client

	mu    sync.Mutex
	alive map[string]bool
	fails map[string]int

	stop     chan struct{}
	stopOnce sync.Once
	probeWg  sync.WaitGroup
}

// normalizeURL canonicalizes a node URL for identity comparison.
func normalizeURL(u string) string {
	u = strings.TrimSpace(strings.TrimRight(u, "/"))
	if u != "" && !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return u
}

// New wraps srv in a cluster node and starts its health probers. Call
// Close to stop them (the serve.Server stays the caller's to close).
func New(srv *serve.Server, opts Options) *Node {
	opts.Self = normalizeURL(opts.Self)
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 250 * time.Millisecond
	}
	if opts.FailThreshold <= 0 {
		opts.FailThreshold = 2
	}
	if opts.SelfConcurrency <= 0 {
		opts.SelfConcurrency = runtime.GOMAXPROCS(0)
	}
	if opts.PeerConcurrency <= 0 {
		opts.PeerConcurrency = 4
	}
	n := &Node{
		srv:    srv,
		opts:   opts,
		client: &http.Client{},
		alive:  make(map[string]bool),
		fails:  make(map[string]int),
		stop:   make(chan struct{}),
	}
	seen := map[string]bool{opts.Self: true}
	for _, p := range opts.Peers {
		p = normalizeURL(p)
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		n.peers = append(n.peers, p)
		// Optimistic until the prober says otherwise: a wrongly-assumed
		// peer costs one failed fetch and a local fallback, while a
		// wrongly-ignored one costs cache locality for a probe round.
		n.alive[p] = true
	}
	sort.Strings(n.peers)

	n.mux = http.NewServeMux()
	for _, rt := range serve.Routes() {
		n.mux.HandleFunc("POST /v1/"+rt.Name, n.handle(rt))
	}
	n.mux.HandleFunc("GET /metricz", n.handleMetricz)
	n.mux.Handle("/", srv.Handler())

	for _, p := range n.peers {
		n.probeWg.Add(1)
		go n.probe(p)
	}
	return n
}

// Handler returns the node's routing HTTP handler.
func (n *Node) Handler() http.Handler { return n.mux }

// Close stops the health probers.
func (n *Node) Close() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.probeWg.Wait()
}

func (n *Node) reg() *metrics.ServerRegistry { return n.srv.Registry() }

// probe watches one peer: FailThreshold consecutive failed health
// checks mark it dead, one success resurrects it — node leave and
// rejoin without gossip.
func (n *Node) probe(peer string) {
	defer n.probeWg.Done()
	t := time.NewTicker(n.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/healthz", nil)
		ok := false
		if err == nil {
			resp, rerr := n.client.Do(req)
			if rerr == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				ok = resp.StatusCode == http.StatusOK
			}
		}
		cancel()
		n.mu.Lock()
		if ok {
			n.fails[peer] = 0
			n.alive[peer] = true
		} else {
			n.fails[peer]++
			if n.fails[peer] >= n.opts.FailThreshold {
				n.alive[peer] = false
			}
		}
		n.mu.Unlock()
	}
}

// markDead records a hard request failure against a peer: routing
// stops trusting it immediately, the prober decides when it is back.
func (n *Node) markDead(peer string) {
	n.mu.Lock()
	n.fails[peer] = n.opts.FailThreshold
	n.alive[peer] = false
	n.mu.Unlock()
}

// alivePeers snapshots the peers currently believed healthy.
func (n *Node) alivePeers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []string
	for _, p := range n.peers {
		if n.alive[p] {
			out = append(out, p)
		}
	}
	return out
}

// owner picks a key's owning node by rendezvous hashing over self plus
// the live peers: every node scores hash(node ‖ key) and the highest
// score wins. All nodes with the same live view agree without
// coordination, and a node joining or leaving only moves the keys it
// wins or held — no ring to rebuild. Divergent views during a failure
// transition merely cost cache locality: any node can compute any key.
func (n *Node) owner(key string) string {
	best, bestScore := n.opts.Self, rendezvousScore(n.opts.Self, key)
	for _, p := range n.alivePeers() {
		if s := rendezvousScore(p, key); s > bestScore || (s == bestScore && p > best) {
			best, bestScore = p, s
		}
	}
	return best
}

// rendezvousScore must mix node and key thoroughly: with a weak hash
// (FNV-style multiply-xor), same-length keys produce rank-correlated
// scores across nodes and whole request families land on one owner.
// SHA-256 of node ‖ key gives independent per-(node, key) scores; the
// cost is nanoseconds on the routing path.
func rendezvousScore(node, key string) uint64 {
	h := sha256.New()
	h.Write([]byte(node))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return binary.BigEndian.Uint64(h.Sum(nil))
}

// writeBody serves result bytes verbatim with the cache verdict and
// the node that supplied them.
func (n *Node) writeBody(w http.ResponseWriter, rt serve.Route, key, verdict, from string, body []byte) {
	w.Header().Set("Content-Type", rt.ContentType)
	w.Header().Set("X-Cache", verdict)
	w.Header().Set("X-Key", key)
	w.Header().Set(nodeHeader, from)
	w.Write(body)
}

// readRequest drains the request body and enforces the peer version
// guard. A false return means the response is already written.
func (n *Node) readRequest(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if v := r.Header.Get(versionHeader); v != "" && v != VersionTag() {
		serve.RespondError(w, http.StatusPreconditionFailed,
			fmt.Errorf("cluster: peer version %q incompatible with %q", v, VersionTag()))
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, serve.MaxBodyBytes))
	if err != nil {
		serve.RespondError(w, http.StatusBadRequest, fmt.Errorf("cluster: bad request body: %w", err))
		return nil, false
	}
	return body, true
}

// delegate hands the request to the local serve.Server with its body
// restored.
func (n *Node) delegate(w http.ResponseWriter, r *http.Request, body []byte) {
	r.Body = io.NopCloser(bytes.NewReader(body))
	r.ContentLength = int64(len(body))
	n.srv.Handler().ServeHTTP(w, r)
}

// handle is the routing path of every compute endpoint: the strict
// parse (an invalid request answers 400 here, without a network hop),
// the local cache tier, ownership routing with a peer fetch, then — for
// an exhaustive sweep — distribution, else local compute.
func (n *Node) handle(rt serve.Route) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, ok := n.readRequest(w, r)
		if !ok {
			return
		}
		req, err := serve.Parse(rt.Name, body)
		if err != nil {
			n.reg().Request(rt.Name)
			serve.RespondError(w, http.StatusBadRequest, err)
			return
		}
		forwarded := r.Header.Get(forwardHeader) != ""
		if _, unit := req.Body.(*serve.ConfigRequest); unit && forwarded {
			// A forwarded configuration is one unit of a remote
			// coordinator's sweep landing on our queue — a steal.
			n.reg().Steal()
		}
		if req.Async {
			// Jobs stay node-local: the job registry is not replicated.
			n.delegate(w, r, body)
			return
		}
		// Tier 1: the local cache replays its bytes no matter who
		// computed them.
		if cached, ok := n.srv.CacheGet(req.Key); ok {
			n.reg().Request(rt.Name)
			n.reg().Outcome(rt.Name, metrics.ServeHit, 0)
			n.writeBody(w, rt, req.Key, "hit", n.opts.Self, cached)
			return
		}
		// Tier 2: fetch from the owner; its response bytes are relayed
		// and cached verbatim. A forwarded request is served here.
		if !forwarded {
			if owner := n.owner(req.Key); owner != n.opts.Self &&
				n.tryPeerFetch(w, r.Context(), rt, req.Key, owner, body) {
				return
			}
		}
		if sweep, ok := req.Body.(*serve.SweepRequest); ok && n.distributes(sweep) {
			n.distributedSweep(w, r, rt, req, *sweep)
			return
		}
		// Tier 3: compute locally.
		n.delegate(w, r, body)
	}
}

// tryPeerFetch forwards the request to the owning peer. It reports
// true when a response has been written: a successful fetch (relayed
// verbatim and inserted into the local tier), a deterministic client
// error from the peer (relayed — recomputing locally cannot fix a bad
// request), or a corrupt body (502, fail fast). Truncated bodies,
// network errors, 5xx, version mismatches and peer backpressure all
// return false: retry elsewhere, which here means the local compute
// fallback.
func (n *Node) tryPeerFetch(w http.ResponseWriter, ctx context.Context, rt serve.Route, key, owner string, body []byte) bool {
	resp, peerBody, err := n.forward(ctx, owner, "/v1/"+rt.Name, body)
	if err != nil {
		n.reg().PeerError()
		n.markDead(owner)
		return false
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		if err := rt.Check(peerBody); err != nil {
			n.reg().PeerError()
			if errors.Is(err, serve.ErrTruncatedBody) {
				return false // retry elsewhere: fall back to local compute
			}
			serve.RespondError(w, http.StatusBadGateway,
				fmt.Errorf("cluster: corrupt body from %s: %w", owner, err))
			return true
		}
		n.srv.CachePut(key, peerBody)
		n.reg().Request(rt.Name)
		n.reg().PeerFetch()
		n.reg().Outcome(rt.Name, metrics.ServeHit, 0)
		n.writeBody(w, rt, key, "peer", owner, peerBody)
		return true
	case resp.StatusCode >= 400 && resp.StatusCode < 500 &&
		resp.StatusCode != http.StatusTooManyRequests &&
		resp.StatusCode != http.StatusRequestTimeout &&
		resp.StatusCode != http.StatusPreconditionFailed:
		// Deterministic request errors (400 vocabulary violations)
		// relay as-is; backpressure and version mismatch fall through
		// to the local fallback instead.
		n.reg().Request(rt.Name)
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.Header().Set(nodeHeader, owner)
		w.WriteHeader(resp.StatusCode)
		w.Write(peerBody)
		return true
	default:
		if resp.StatusCode >= 500 {
			n.reg().PeerError()
			n.markDead(owner)
		}
		return false
	}
}

// forward posts a request body to a peer with the cluster headers.
func (n *Node) forward(ctx context.Context, peer, path string, body []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardHeader, "1")
	req.Header.Set(versionHeader, VersionTag())
	req.Header.Set(nodeHeader, n.opts.Self)
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	peerBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return resp, peerBody, nil
}

// handleMetricz appends the cluster membership view to the serve
// layer's /metricz page (the peer-fetch/steal/requeue counters render
// inside the registry table itself).
func (n *Node) handleMetricz(w http.ResponseWriter, r *http.Request) {
	n.srv.Handler().ServeHTTP(w, r)
	alive := n.alivePeers()
	fmt.Fprintf(w, "  nodes         self=%s peers=%d alive=%d\n", n.opts.Self, len(n.peers), len(alive))
	for _, p := range n.peers {
		state := "dead"
		n.mu.Lock()
		if n.alive[p] {
			state = "alive"
		}
		n.mu.Unlock()
		fmt.Fprintf(w, "  peer          %s %s\n", p, state)
	}
}
