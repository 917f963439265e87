package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/javacard"
	"repro/internal/serve"
)

// swapHandler lets an httptest.Server start (and yield its URL) before
// the Node that will serve it exists.
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	if h == nil {
		http.Error(w, "node not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// testCluster is a set of in-process nodes wired as full-mesh peers.
type testCluster struct {
	nodes []*Node
	srvs  []*serve.Server
	hts   []*httptest.Server
	urls  []string
}

func (tc *testCluster) close() {
	for _, n := range tc.nodes {
		if n != nil {
			n.Close()
		}
	}
	for _, ht := range tc.hts {
		if ht != nil {
			ht.Close()
		}
	}
	for _, s := range tc.srvs {
		if s != nil {
			s.Close()
		}
	}
}

// startCluster brings up count nodes. tweak (optional) edits each
// node's Options before New; hook (optional) installs a compute hook
// on each serve.Server.
func startCluster(t *testing.T, count int, tweak func(i int, o *Options), hook func(i int) func(string)) *testCluster {
	t.Helper()
	tc := &testCluster{}
	swaps := make([]*swapHandler, count)
	for i := 0; i < count; i++ {
		swaps[i] = &swapHandler{}
		tc.hts = append(tc.hts, httptest.NewServer(swaps[i]))
		tc.urls = append(tc.urls, tc.hts[i].URL)
	}
	for i := 0; i < count; i++ {
		srv := serve.New(serve.Options{Workers: 2, QueueDepth: 8, SweepWorkers: 1})
		if hook != nil {
			if h := hook(i); h != nil {
				srv.SetComputeHook(h)
			}
		}
		tc.srvs = append(tc.srvs, srv)
		var peers []string
		for j, u := range tc.urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		opts := Options{
			Self:  tc.urls[i],
			Peers: peers,
			// Membership stays static unless a request fails hard —
			// probe-driven transitions get their own dedicated test.
			ProbeInterval:   time.Hour,
			FailThreshold:   2,
			SelfConcurrency: 2,
			PeerConcurrency: 2,
		}
		if tweak != nil {
			tweak(i, &opts)
		}
		node := New(srv, opts)
		tc.nodes = append(tc.nodes, node)
		swaps[i].set(node.Handler())
	}
	t.Cleanup(tc.close)
	return tc
}

// post sends a JSON request to a node and returns status, body and the
// response headers.
func post(t *testing.T, url, path string, req any, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return postRaw(t, url, path, string(payload), hdr)
}

// postRaw sends raw body bytes to a node and returns status, body and
// the response headers.
func postRaw(t *testing.T, url, path, payload string, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	hreq, err := http.NewRequest(http.MethodPost, url+path, strings.NewReader(payload))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hreq.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, body, resp.Header
}

// keyOf is a request's content address, keyed as the router keys it.
func keyOf(t *testing.T, endpoint string, req any) string {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	p, err := serve.Parse(endpoint, body)
	if err != nil {
		t.Fatal(err)
	}
	return p.Key
}

// singleNodeBody computes a request's reference bytes on a fresh
// standalone server — what the cluster must reproduce byte-for-byte.
func singleNodeBody(t *testing.T, path string, req any) []byte {
	t.Helper()
	srv := serve.New(serve.Options{Workers: 2, SweepWorkers: 1})
	defer srv.Close()
	ht := httptest.NewServer(srv.Handler())
	defer ht.Close()
	status, body, _ := post(t, ht.URL, path, req, nil)
	if status != http.StatusOK {
		t.Fatalf("single-node %s: status %d: %s", path, status, body)
	}
	return body
}

func smallSweep() serve.SweepRequest {
	return serve.SweepRequest{
		Layers:    []int{1},
		Orgs:      []string{javacard.Organizations[0].String(), javacard.Organizations[1].String()},
		AddrMaps:  []string{"near", "far"},
		Workloads: []string{"arith-loop"},
	}
}

// TestClusterByteEquivalence is the headline contract: a 2-node
// cluster answers estimate, sweep and batch with bytes identical to a
// single standalone node — IEEE-754 energy bit patterns included.
func TestClusterByteEquivalence(t *testing.T) {
	tc := startCluster(t, 2, nil, nil)
	cases := []struct {
		path string
		req  any
	}{
		{"/v1/estimate", serve.EstimateRequest{Layer: 1, N: 64}},
		{"/v1/sweep", smallSweep()},
		{"/v1/batch", serve.BatchRequest{Layer: 0, Runs: 4, N: 32}},
	}
	for _, c := range cases {
		want := singleNodeBody(t, c.path, c.req)
		for i, url := range tc.urls {
			status, got, hdr := post(t, url, c.path, c.req, nil)
			if status != http.StatusOK {
				t.Fatalf("%s via node %d: status %d: %s", c.path, i, status, got)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s via node %d: body differs from single-node reference\n got: %q\nwant: %q",
					c.path, i, got, want)
			}
			if hdr.Get("X-Cache") == "" {
				t.Errorf("%s via node %d: missing X-Cache header", c.path, i)
			}
		}
	}
}

// TestPeerCacheReplay pins the two-tier cache behavior: once the key's
// owner holds the bytes, the other node serves them via a peer fetch
// (X-Cache "peer"), and from then on replays its local copy ("hit") —
// verbatim both times.
func TestPeerCacheReplay(t *testing.T) {
	tc := startCluster(t, 2, nil, nil)
	req := serve.EstimateRequest{Layer: 0, N: 48}
	key := keyOf(t, "estimate", req)
	// Find the owner and the non-owner of this key.
	ownerURL := tc.nodes[0].owner(key)
	nonOwner := tc.urls[0]
	if nonOwner == ownerURL {
		nonOwner = tc.urls[1]
	}
	status, want, _ := post(t, ownerURL, "/v1/estimate", req, nil)
	if status != http.StatusOK {
		t.Fatalf("owner compute: status %d: %s", status, want)
	}
	status, got, hdr := post(t, nonOwner, "/v1/estimate", req, nil)
	if status != http.StatusOK {
		t.Fatalf("peer fetch: status %d: %s", status, got)
	}
	if hdr.Get("X-Cache") != "peer" {
		t.Fatalf("first non-owner request: X-Cache = %q, want \"peer\"", hdr.Get("X-Cache"))
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("peer-fetched body differs from owner's bytes")
	}
	status, got2, hdr2 := post(t, nonOwner, "/v1/estimate", req, nil)
	if status != http.StatusOK {
		t.Fatalf("local replay: status %d: %s", status, got2)
	}
	if hdr2.Get("X-Cache") != "hit" {
		t.Fatalf("second non-owner request: X-Cache = %q, want \"hit\"", hdr2.Get("X-Cache"))
	}
	if !bytes.Equal(got2, want) {
		t.Fatalf("locally replayed body differs from owner's bytes")
	}
	snap := tc.nodes[0].srv.Registry().Snapshot()
	snap2 := tc.nodes[1].srv.Registry().Snapshot()
	if snap.PeerFetches+snap2.PeerFetches == 0 {
		t.Fatalf("no PeerFetches recorded anywhere")
	}
}

// TestKillNodeMidSweep is the no-lost-work guarantee: a peer dying
// while holding stolen sweep configurations delays the sweep, never
// drops rows. Node B's config computes are gated so the kill lands
// while B provably holds work; the sweep must still complete with
// bytes identical to a single node, and the requeue must be counted.
func TestKillNodeMidSweep(t *testing.T) {
	gate := make(chan struct{})
	var started sync.Once
	startedCh := make(chan struct{})
	tc := startCluster(t, 2,
		func(i int, o *Options) {
			if i == 0 {
				o.SelfConcurrency = 1
				o.PeerConcurrency = 1
			}
		},
		func(i int) func(string) {
			if i != 1 {
				return nil
			}
			return func(kind string) {
				if kind != "config" {
					return
				}
				started.Do(func() { close(startedCh) })
				<-gate
			}
		})

	req := smallSweep() // 4 configurations
	want := singleNodeBody(t, "/v1/sweep", req)

	type result struct {
		status int
		body   []byte
	}
	resCh := make(chan result, 1)
	go func() {
		// The forward header pins node A as the coordinator regardless
		// of which node rendezvous hashing would pick as owner.
		status, body, _ := post(t, tc.urls[0], "/v1/sweep", req, map[string]string{
			forwardHeader: "1",
			versionHeader: VersionTag(),
		})
		resCh <- result{status, body}
	}()

	// Wait until node B demonstrably holds at least one configuration,
	// then kill it: first the connections (node A's in-flight fetch
	// fails), then the gate (B's worker unblocks so shutdown can run).
	select {
	case <-startedCh:
	case <-time.After(10 * time.Second):
		t.Fatal("node B never started a config compute")
	}
	tc.hts[1].CloseClientConnections()
	close(gate)

	var res result
	select {
	case res = <-resCh:
	case <-time.After(30 * time.Second):
		t.Fatal("sweep did not complete after peer death")
	}
	if res.status != http.StatusOK {
		t.Fatalf("sweep after peer death: status %d: %s", res.status, res.body)
	}
	if !bytes.Equal(res.body, want) {
		t.Errorf("sweep body after peer death differs from single-node reference\n got: %q\nwant: %q",
			res.body, want)
	}
	if snap := tc.srvs[0].Registry().Snapshot(); snap.Requeues == 0 {
		t.Errorf("coordinator recorded no requeues; want >= 1")
	}
}

// TestOwnerDeterministic: every node with the same live view picks the
// same owner for a key, and distinct keys spread across nodes.
func TestOwnerDeterministic(t *testing.T) {
	tc := startCluster(t, 3, nil, nil)
	owners := map[string]bool{}
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("key-%d", i)
		want := tc.nodes[0].owner(key)
		owners[want] = true
		for j, n := range tc.nodes[1:] {
			if got := n.owner(key); got != want {
				t.Fatalf("node %d disagrees on owner of %q: %q vs %q", j+1, key, got, want)
			}
		}
	}
	if len(owners) < 2 {
		t.Errorf("32 keys all landed on one node; rendezvous spread broken")
	}
}

// TestVersionMismatch: a request stamped with a foreign version tag is
// refused with 412 — mixed-version peers must not exchange bytes.
func TestVersionMismatch(t *testing.T) {
	tc := startCluster(t, 1, nil, nil)
	status, body, _ := post(t, tc.urls[0], "/v1/estimate",
		serve.EstimateRequest{Layer: 0}, map[string]string{versionHeader: "ecserve/0+calib/0"})
	if status != http.StatusPreconditionFailed {
		t.Fatalf("foreign version: status %d, want 412: %s", status, body)
	}
	// The matching tag passes.
	status, _, _ = post(t, tc.urls[0], "/v1/estimate",
		serve.EstimateRequest{Layer: 0}, map[string]string{versionHeader: VersionTag()})
	if status != http.StatusOK {
		t.Fatalf("matching version: status %d, want 200", status)
	}
}

// TestBadRequestRouted: request errors answer 400 at the entry node
// without any peer traffic, and with the status a bare serve.Server
// answers for the same bytes — the strict decode (unknown field, data
// after the object, the body-size cap) included.
func TestBadRequestRouted(t *testing.T) {
	tc := startCluster(t, 2, nil, nil)
	single := serve.New(serve.Options{Workers: 2})
	defer single.Close()
	ht := httptest.NewServer(single.Handler())
	defer ht.Close()
	cases := []struct {
		path, body string
	}{
		{"/v1/estimate", `{"layer":9}`},
		{"/v1/batch", `{"layer":7}`},
		{"/v1/sweep", `{"layers":[99]}`},
		{"/v1/config", `{"workload":"nope","layer":1,"org":"x","addr_map":"near"}`},
		{"/v1/sweep", `{"arb":"rr"}`},
		{"/v1/estimate", `{"layer":0}{"x":1}`},
		{"/v1/config", `{"workload":"arith-loop","layer":1,"org":"halfword","addr_map":"near"}]`},
		{"/v1/estimate", `{"layer":0` + strings.Repeat(" ", serve.MaxBodyBytes) + `}`},
	}
	for _, c := range cases {
		status, body, _ := postRaw(t, tc.urls[0], c.path, c.body, nil)
		if status != http.StatusBadRequest {
			t.Errorf("%s %.40q via cluster: status %d, want 400: %.200s", c.path, c.body, status, body)
		}
		if ref, refBody, _ := postRaw(t, ht.URL, c.path, c.body, nil); ref != status {
			t.Errorf("%s %.40q: cluster answers %d, a single node %d: %.200s", c.path, c.body, status, ref, refBody)
		}
	}
}

// TestDeadPeerFallsBackLocally: with its only peer down, a node serves
// every keyed request itself — the cluster degrades to a single node
// rather than failing requests whose owner is unreachable.
func TestDeadPeerFallsBackLocally(t *testing.T) {
	tc := startCluster(t, 2, nil, nil)
	tc.hts[1].Close() // peer down before any traffic
	for i := 0; i < 8; i++ {
		req := serve.EstimateRequest{Layer: 1, N: 32 + i}
		status, body, _ := post(t, tc.urls[0], "/v1/estimate", req, nil)
		if status != http.StatusOK {
			t.Fatalf("estimate %d with dead peer: status %d: %s", i, status, body)
		}
	}
	// Sweeps distribute only over live peers; with none, they compute
	// locally and still match the reference.
	req := smallSweep()
	want := singleNodeBody(t, "/v1/sweep", req)
	status, got, _ := post(t, tc.urls[0], "/v1/sweep", req, nil)
	if status != http.StatusOK {
		t.Fatalf("sweep with dead peer: status %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("sweep with dead peer differs from single-node reference")
	}
}

// TestProbeMarksDeadAndRevives exercises the membership lifecycle:
// probes mark a stopped peer dead after FailThreshold failures, and a
// single success revives it.
func TestProbeMarksDeadAndRevives(t *testing.T) {
	up := true
	var mu sync.Mutex
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		ok := up
		mu.Unlock()
		if !ok {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer peer.Close()
	srv := serve.New(serve.Options{Workers: 1})
	defer srv.Close()
	n := New(srv, Options{
		Self:          "http://self.invalid",
		Peers:         []string{peer.URL},
		ProbeInterval: 20 * time.Millisecond,
		FailThreshold: 2,
	})
	defer n.Close()

	waitFor := func(want int, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if len(n.alivePeers()) == want {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("peer never became %s", what)
	}
	waitFor(1, "alive")
	mu.Lock()
	up = false
	mu.Unlock()
	waitFor(0, "dead")
	mu.Lock()
	up = true
	mu.Unlock()
	waitFor(1, "alive again")
}

// TestMetriczClusterSection: the cluster node's /metricz keeps the
// serve layer's table and appends the membership view.
func TestMetriczClusterSection(t *testing.T) {
	tc := startCluster(t, 2, nil, nil)
	// Drive one peer fetch so the cluster counter line renders.
	req := serve.EstimateRequest{Layer: 0, N: 40}
	key := keyOf(t, "estimate", req)
	ownerURL := tc.nodes[0].owner(key)
	nonOwner := tc.urls[0]
	if nonOwner == ownerURL {
		nonOwner = tc.urls[1]
	}
	post(t, ownerURL, "/v1/estimate", req, nil)
	post(t, nonOwner, "/v1/estimate", req, nil)

	resp, err := http.Get(nonOwner + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{"nodes", "peer ", "cluster", "peer-fetch"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metricz missing %q:\n%s", want, text)
		}
	}
}

// TestTruncatedPeerBodyFallsBack: a peer answering 200 with a cut-off
// body — an NDJSON stream or a single JSON document — must not poison
// the requester: the truncation is detected, the bytes are discarded
// and the node computes locally.
func TestTruncatedPeerBodyFallsBack(t *testing.T) {
	// A fake "owner" that always answers truncated bytes.
	var mu sync.Mutex
	var truncated []byte
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte(`{"ok":true}`))
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		mu.Lock()
		body := truncated
		mu.Unlock()
		w.Write(body)
	}))
	defer fake.Close()

	srv := serve.New(serve.Options{Workers: 2})
	defer srv.Close()
	n := New(srv, Options{Self: "http://self.invalid", Peers: []string{fake.URL}, ProbeInterval: time.Hour})
	defer n.Close()
	ht := httptest.NewServer(n.Handler())
	defer ht.Close()

	cases := []struct {
		endpoint string
		req      func(n int) any
	}{
		{"batch", func(n int) any { return serve.BatchRequest{Layer: 0, Runs: 3, N: n} }},
		{"estimate", func(n int) any { return serve.EstimateRequest{Layer: 1, N: n} }},
	}
	for _, c := range cases {
		// Pick a request whose key the fake peer owns, so the fetch path
		// is exercised deterministically regardless of port numbers.
		var req any
		for nn := 16; nn < 64 && req == nil; nn++ {
			if cand := c.req(nn); n.owner(keyOf(t, c.endpoint, cand)) == fake.URL {
				req = cand
			}
		}
		if req == nil {
			t.Fatalf("%s: no candidate key owned by the fake peer (rendezvous spread broken)", c.endpoint)
		}
		path := "/v1/" + c.endpoint
		want := singleNodeBody(t, path, req)
		mu.Lock()
		truncated = want[:len(want)/2]
		mu.Unlock()

		status, got, _ := post(t, ht.URL, path, req, nil)
		if status != http.StatusOK {
			t.Fatalf("%s via truncating peer: status %d: %s", c.endpoint, status, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: local fallback after truncated peer body produced wrong bytes", c.endpoint)
		}
	}
	if snap := srv.Registry().Snapshot(); snap.PeerErrors == 0 {
		t.Errorf("truncated peer body recorded no PeerErrors")
	}
}
