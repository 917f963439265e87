package serve

import (
	"bytes"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/javacard"
	"repro/internal/metrics"
)

// TestStatusMapping pins the protocol's HTTP status contract for
// deterministic request errors: every canonicalization or decode
// failure answers 400 — never 500 — because the request itself is bad
// and retrying (anywhere) cannot help. The cluster's routing layer
// branches on exactly these codes.
func TestStatusMapping(t *testing.T) {
	_, hs, _ := newTestServer(t, Options{Workers: 2})
	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		{"estimate bad json", "/v1/estimate", `{"layer":`, http.StatusBadRequest},
		{"estimate bad layer", "/v1/estimate", `{"layer":9}`, http.StatusBadRequest},
		{"estimate bad corpus", "/v1/estimate", `{"layer":0,"corpus":"nope"}`, http.StatusBadRequest},
		{"estimate bad fault", "/v1/estimate", `{"layer":0,"fault":"bogus"}`, http.StatusBadRequest},
		{"estimate n over limit", "/v1/estimate", `{"layer":0,"n":100000000}`, http.StatusBadRequest},
		{"sweep bad json", "/v1/sweep", `{`, http.StatusBadRequest},
		{"sweep bad layer", "/v1/sweep", `{"layers":[99]}`, http.StatusBadRequest},
		{"sweep bad org", "/v1/sweep", `{"orgs":["bogus"]}`, http.StatusBadRequest},
		{"sweep bad map", "/v1/sweep", `{"addr_maps":["bogus"]}`, http.StatusBadRequest},
		{"sweep bad workload", "/v1/sweep", `{"workloads":["bogus"]}`, http.StatusBadRequest},
		{"sweep bad fidelity", "/v1/sweep", `{"fidelity":"bogus"}`, http.StatusBadRequest},
		{"batch bad json", "/v1/batch", `[`, http.StatusBadRequest},
		{"batch bad layer", "/v1/batch", `{"layer":7}`, http.StatusBadRequest},
		{"batch runs over limit", "/v1/batch", `{"layer":0,"runs":99999}`, http.StatusBadRequest},
		{"batch n over limit", "/v1/batch", `{"layer":0,"n":99999}`, http.StatusBadRequest},
		{"batch width over limit", "/v1/batch", `{"layer":0,"width":99999}`, http.StatusBadRequest},
		{"batch bad fault", "/v1/batch", `{"layer":0,"fault":"bogus"}`, http.StatusBadRequest},
		{"config bad workload", "/v1/config", `{"workload":"nope","layer":1,"org":"byte-staged","addr_map":"near"}`, http.StatusBadRequest},
		{"config bad org", "/v1/config", `{"workload":"arith-loop","layer":1,"org":"nope","addr_map":"near"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(hs.URL+c.path, "application/json", bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.want, body)
		}
	}
}

// TestDeadlineAnswers504: a compute whose server-side deadline fires
// answers 504 Gateway Timeout, not 500 — the request was fine, the
// time budget was not.
func TestDeadlineAnswers504(t *testing.T) {
	s, hs, _ := newTestServer(t, Options{Workers: 1})
	s.computeHook = func(string) { time.Sleep(300 * time.Millisecond) }
	resp := postJSON(t, hs.URL+"/v1/estimate", EstimateRequest{Layer: 0, DeadlineMs: 20})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: status %d, want 504 (%s)", resp.StatusCode, body)
	}
}

// TestDrainAnswers503: a draining server refuses new work with 503 and
// Retry-After across every compute endpoint.
func TestDrainAnswers503(t *testing.T) {
	s, hs, _ := newTestServer(t, Options{Workers: 1})
	s.Close()
	reqs := map[string]any{
		"/v1/estimate": EstimateRequest{Layer: 0},
		"/v1/sweep":    SweepRequest{Layers: []int{1}, Workloads: []string{"arith-loop"}},
		"/v1/batch":    BatchRequest{Layer: 0, Runs: 2, N: 16},
		"/v1/config":   ConfigRequest{Workload: "arith-loop", Layer: 1, Org: javacard.Organizations[0].String(), AddrMap: "near"},
	}
	for path, req := range reqs {
		resp := postJSON(t, hs.URL+path, req)
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s while draining: status %d, want 503 (%s)", path, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s while draining: missing Retry-After", path)
		}
	}
}

// TestTruncatedBodyTyped is the stream-handling regression: a cached
// NDJSON body cut off before its trailer — mid-line or at a clean line
// boundary — parses back as a typed ErrTruncatedBody, while corruption
// inside the stream stays a generic error. The cluster's peer-fetch
// retry-vs-fail-fast decision rides on this distinction.
func TestTruncatedBodyTyped(t *testing.T) {
	_, hs, _ := newTestServer(t, Options{Workers: 2, SweepWorkers: 1})

	sweepResp := postJSON(t, hs.URL+"/v1/sweep", SweepRequest{
		Layers: []int{1}, Orgs: []string{javacard.Organizations[0].String()},
		AddrMaps: []string{"near"}, Workloads: []string{"arith-loop"},
	})
	sweepBody := readAll(t, sweepResp)
	if sweepResp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", sweepResp.StatusCode, sweepBody)
	}
	batchResp := postJSON(t, hs.URL+"/v1/batch", BatchRequest{Layer: 0, Runs: 3, N: 16})
	batchBody := readAll(t, batchResp)
	if batchResp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", batchResp.StatusCode, batchBody)
	}

	cases := []struct {
		name  string
		body  []byte
		parse func([]byte) error
	}{
		{"sweep", sweepBody, func(b []byte) error { _, _, err := ParseSweepBody(b); return err }},
		{"batch", batchBody, func(b []byte) error { _, _, err := ParseBatchBody(b); return err }},
	}
	for _, c := range cases {
		if err := c.parse(c.body); err != nil {
			t.Fatalf("%s: intact body failed to parse: %v", c.name, err)
		}
		// Cut mid-line: the final value never finishes.
		if err := c.parse(c.body[:len(c.body)-3]); !errors.Is(err, ErrTruncatedBody) {
			t.Errorf("%s cut mid-line: err = %v, want ErrTruncatedBody", c.name, err)
		}
		// Cut at a line boundary: rows intact, trailer missing — the
		// signature of a partially-written cached body.
		trimmed := bytes.TrimRight(c.body, "\n")
		cut := c.body[:bytes.LastIndexByte(trimmed, '\n')+1]
		if err := c.parse(cut); !errors.Is(err, ErrTruncatedBody) {
			t.Errorf("%s cut at line boundary: err = %v, want ErrTruncatedBody", c.name, err)
		}
		// Empty body: trivially truncated.
		if err := c.parse(nil); !errors.Is(err, ErrTruncatedBody) {
			t.Errorf("%s empty body: err = %v, want ErrTruncatedBody", c.name, err)
		}
		// Corruption mid-stream is NOT truncation: fail fast.
		corrupt := bytes.Clone(c.body)
		corrupt[bytes.IndexByte(corrupt, '"')] = 0x01
		if err := c.parse(corrupt); err == nil || errors.Is(err, ErrTruncatedBody) {
			t.Errorf("%s corrupted body: err = %v, want a non-truncation error", c.name, err)
		}
	}
}

// endpointProbe returns a valid request for a compute endpoint label.
// A new endpoint registered in computeRoutes must add a case here —
// that is the point: the per-endpoint accounting test below covers the
// whole route set by construction.
func endpointProbe(t *testing.T, ep string) (path string, req any, key string) {
	t.Helper()
	org := javacard.Organizations[0].String()
	switch ep {
	case "estimate":
		r := EstimateRequest{Layer: 0, N: 24}
		k, err := EstimateKey(r)
		if err != nil {
			t.Fatal(err)
		}
		return "/v1/estimate", r, k
	case "sweep":
		r := SweepRequest{Layers: []int{1}, Orgs: []string{org}, AddrMaps: []string{"near"}, Workloads: []string{"arith-loop"}}
		k, err := SweepKey(r)
		if err != nil {
			t.Fatal(err)
		}
		return "/v1/sweep", r, k
	case "batch":
		r := BatchRequest{Layer: 0, Runs: 2, N: 16}
		k, err := BatchKey(r)
		if err != nil {
			t.Fatal(err)
		}
		return "/v1/batch", r, k
	case "config":
		r := ConfigRequest{Workload: "arith-loop", Layer: 1, Org: org, AddrMap: "near"}
		k, err := ConfigKey(r)
		if err != nil {
			t.Fatal(err)
		}
		return "/v1/config", r, k
	}
	t.Fatalf("endpointProbe: no probe request for endpoint %q — add one", ep)
	return "", nil, ""
}

// TestMetriczPerEndpointAccounting drives every registered compute
// endpoint through all three cache outcomes and asserts the registry
// accounts them under the endpoint's own label: requests=3 and exactly
// one miss, one dedup, one hit each. ComputeEndpoints() is the route
// registry itself, so an endpoint added without accounting fails here.
func TestMetriczPerEndpointAccounting(t *testing.T) {
	s, hs, _ := newTestServer(t, Options{Workers: 2, QueueDepth: 16})
	eps := s.ComputeEndpoints()
	if len(eps) < 4 {
		t.Fatalf("ComputeEndpoints() = %v, want at least estimate/sweep/batch/config", eps)
	}
	gates := make(map[string]chan struct{}, len(eps))
	for _, ep := range eps {
		gates[ep] = make(chan struct{})
	}
	entered := make(chan string, 16)
	s.computeHook = func(kind string) {
		entered <- kind
		<-gates[kind]
	}

	for _, ep := range eps {
		path, req, key := endpointProbe(t, ep)
		var wg sync.WaitGroup
		statuses := make([]int, 2)
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp := postJSON(t, hs.URL+path, req)
				readAll(t, resp)
				statuses[i] = resp.StatusCode
			}(i)
			if i == 0 {
				// The leader's compute must be parked on the gate before
				// the follower starts, so the follower deduplicates.
				if got := <-entered; got != ep {
					t.Fatalf("compute hook saw kind %q, want %q", got, ep)
				}
			}
		}
		waitFor(t, ep+" follower joined the flight", func() bool {
			s.cache.mu.Lock()
			defer s.cache.mu.Unlock()
			e := s.cache.flight[key]
			return e != nil && e.waiters == 2
		})
		close(gates[ep])
		wg.Wait()
		for i, st := range statuses {
			if st != http.StatusOK {
				t.Fatalf("%s request %d: status %d", ep, i, st)
			}
		}
		// Third request: a pure cache hit.
		resp := postJSON(t, hs.URL+path, req)
		readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s hit request: status %d", ep, resp.StatusCode)
		}
	}

	snap := s.Stats()
	for _, ep := range eps {
		by, ok := snap.OutcomesBy[ep]
		if !ok {
			t.Errorf("endpoint %q missing from OutcomesBy", ep)
			continue
		}
		if by[metrics.ServeMiss] != 1 || by[metrics.ServeDedup] != 1 || by[metrics.ServeHit] != 1 {
			t.Errorf("endpoint %q outcomes miss=%d dedup=%d hit=%d, want 1/1/1",
				ep, by[metrics.ServeMiss], by[metrics.ServeDedup], by[metrics.ServeHit])
		}
		if snap.Requests[ep] != 3 {
			t.Errorf("endpoint %q requests=%d, want 3", ep, snap.Requests[ep])
		}
	}
}
