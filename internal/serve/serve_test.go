package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/javacard"
	"repro/internal/metrics"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server, *Client) {
	t.Helper()
	s := New(opts)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs, &Client{BaseURL: hs.URL}
}

func postJSON(t *testing.T, url string, req any) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// keyOf keys a typed request the way every key is taken: marshalled,
// then through Parse's strict decode, canonicalization and key.
func keyOf(endpoint string, req any) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	p, err := Parse(endpoint, body)
	return p.Key, err
}

// The headline contract: cache-hit responses are byte-identical to the
// fresh compute, and the energy figure matches a direct run of the
// estimator bit for bit — across all three abstraction layers, clean
// and under a fault plan.
func TestEstimateCacheBitEqualAllLayers(t *testing.T) {
	_, hs, _ := newTestServer(t, Options{Workers: 2})
	for _, layer := range []int{0, 1, 2} {
		for _, plan := range []string{"", "flaky"} {
			name := fmt.Sprintf("L%d/%s", layer, plan)
			req := EstimateRequest{Layer: layer, Corpus: "perf", N: 64, Fault: plan}

			cold := postJSON(t, hs.URL+"/v1/estimate", req)
			if cold.StatusCode != http.StatusOK {
				t.Fatalf("%s: cold status %d", name, cold.StatusCode)
			}
			if got := cold.Header.Get("X-Cache"); got != "miss" {
				t.Fatalf("%s: cold X-Cache = %q, want miss", name, got)
			}
			coldBody := readAll(t, cold)

			hit := postJSON(t, hs.URL+"/v1/estimate", req)
			if got := hit.Header.Get("X-Cache"); got != "hit" {
				t.Fatalf("%s: warm X-Cache = %q, want hit", name, got)
			}
			hitBody := readAll(t, hit)
			if !bytes.Equal(coldBody, hitBody) {
				t.Fatalf("%s: cache hit not byte-identical to fresh compute:\n%s\n%s",
					name, coldBody, hitBody)
			}

			// The served figure equals a direct estimator run, bit for bit.
			p, err := fault.Parse(plan)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := bench.RunCorpusEstimate(layer, "perf", 64, p)
			if err != nil {
				t.Fatal(err)
			}
			var resp EstimateResponse
			if err := json.Unmarshal(hitBody, &resp); err != nil {
				t.Fatalf("%s: bad body: %v", name, err)
			}
			if resp.EnergyBits != EnergyBits(direct.EnergyJ) {
				t.Fatalf("%s: served energy bits %s != direct %s",
					name, resp.EnergyBits, EnergyBits(direct.EnergyJ))
			}
			if math.Float64bits(resp.EnergyJ) != math.Float64bits(direct.EnergyJ) {
				t.Fatalf("%s: JSON float round-trip moved the energy figure", name)
			}
			if resp.Cycles != direct.Cycles || resp.Errors != direct.Errors || resp.Retries != direct.Retries {
				t.Fatalf("%s: served %+v != direct %+v", name, resp, direct)
			}
		}
	}
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// 16 concurrent identical requests perform exactly one compute: one
// leader misses, fifteen followers dedup onto its in-flight entry, and
// every response body is identical.
func TestDedupSixteenConcurrentOneCompute(t *testing.T) {
	s, hs, _ := newTestServer(t, Options{Workers: 2, QueueDepth: 32})
	gate := make(chan struct{})
	entered := make(chan struct{}, 32)
	s.computeHook = func(string) {
		entered <- struct{}{}
		<-gate
	}

	req := EstimateRequest{Layer: 2, Corpus: "perf", N: 48}
	c, err := canonicalizeEstimate(req)
	if err != nil {
		t.Fatal(err)
	}
	key := c.key()

	const clients = 16
	bodies := make([][]byte, clients)
	verdicts := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postJSON(t, hs.URL+"/v1/estimate", req)
			verdicts[i] = resp.Header.Get("X-Cache")
			bodies[i] = readAll(t, resp)
		}(i)
	}

	<-entered // the leader's compute is on a worker, parked on the gate
	waitFor(t, "all 16 requests joined the flight", func() bool {
		s.cache.mu.Lock()
		defer s.cache.mu.Unlock()
		e := s.cache.flight[key]
		return e != nil && e.waiters == clients
	})
	close(gate)
	wg.Wait()

	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0:\n%s\n%s", i, bodies[i], bodies[0])
		}
	}
	snap := s.Registry().Snapshot()
	if snap.Computes != 1 {
		t.Fatalf("16 identical requests performed %d computes, want exactly 1", snap.Computes)
	}
	miss, dedup := snap.Outcomes[metrics.ServeMiss], snap.Outcomes[metrics.ServeDedup]
	if miss != 1 || dedup != clients-1 {
		t.Fatalf("outcomes miss=%d dedup=%d, want 1/%d", miss, dedup, clients-1)
	}
}

// Overload: with one worker and a one-deep queue, excess distinct
// requests answer 429 with Retry-After — and every request that was
// accepted still completes correctly once the worker frees up.
func TestOverloadBackpressure(t *testing.T) {
	s, hs, _ := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	gate := make(chan struct{})
	entered := make(chan struct{}, 16)
	s.computeHook = func(string) {
		entered <- struct{}{}
		<-gate
	}

	// Park the worker on a first request.
	first := make(chan []byte, 1)
	go func() {
		resp := postJSON(t, hs.URL+"/v1/estimate", EstimateRequest{Layer: 2, Corpus: "perf", N: 16})
		first <- readAll(t, resp)
	}()
	<-entered

	// Now flood with distinct requests: exactly one fits the queue,
	// the rest must be rejected with 429 + Retry-After.
	const flood = 6
	type outcome struct {
		status int
		retry  string
		body   []byte
		n      int
	}
	outcomes := make([]outcome, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := 17 + i // distinct content addresses
			resp := postJSON(t, hs.URL+"/v1/estimate", EstimateRequest{Layer: 2, Corpus: "perf", N: n})
			outcomes[i] = outcome{
				status: resp.StatusCode,
				retry:  resp.Header.Get("Retry-After"),
				body:   readAll(t, resp),
				n:      n,
			}
		}(i)
	}

	// Wait until every flood request has either been rejected or is
	// parked (accepted), then open the gate.
	waitFor(t, "flood settled", func() bool {
		s.qmu.Lock()
		queued := len(s.queue)
		s.qmu.Unlock()
		rejected := int(s.Registry().Snapshot().Rejected429)
		return queued+rejected == flood
	})
	close(gate)
	wg.Wait()
	<-first

	accepted, rejected := 0, 0
	for _, o := range outcomes {
		switch o.status {
		case http.StatusOK:
			accepted++
			var resp EstimateResponse
			if err := json.Unmarshal(o.body, &resp); err != nil {
				t.Fatalf("accepted request returned bad body: %v", err)
			}
			direct, err := bench.RunCorpusEstimate(2, "perf", o.n, fault.Plan{})
			if err != nil {
				t.Fatal(err)
			}
			if resp.EnergyBits != EnergyBits(direct.EnergyJ) {
				t.Fatalf("accepted job lost precision under overload: %s != %s",
					resp.EnergyBits, EnergyBits(direct.EnergyJ))
			}
		case http.StatusTooManyRequests:
			rejected++
			if o.retry == "" {
				t.Fatal("429 without Retry-After")
			}
		default:
			t.Fatalf("unexpected status %d", o.status)
		}
	}
	if accepted != 1 || rejected != flood-1 {
		t.Fatalf("accepted=%d rejected=%d, want 1/%d", accepted, rejected, flood-1)
	}
	if got := s.Registry().Snapshot().Rejected429; got != uint64(flood-1) {
		t.Fatalf("Rejected429 = %d, want %d", got, flood-1)
	}
}

// TestEnqueueCountsBeforeSend is the admission-count regression: a
// worker can pick up and finish a no-op compute before the send that
// queued it returns, so enqueue must count the task before sending it —
// counting after drove the count negative and panicked the process
// ("sync: negative WaitGroup counter"). Ten thousand no-op computes
// through two workers with no compute hook open that window often.
func TestEnqueueCountsBeforeSend(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 64})
	const submitters, each = 4, 2500
	noop := func(context.Context) ([]byte, error) { return []byte("ok"), nil }
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				key := fmt.Sprintf("noop-%d-%d", g, i)
				if _, _, status, err := s.Do(context.Background(), "estimate", key, 0, noop); err != nil {
					t.Errorf("%s: status %d: %v", key, status, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s.Close()
	if got := s.Registry().Snapshot().Computes; got != submitters*each {
		t.Fatalf("%d computes, want %d", got, submitters*each)
	}
}

// Graceful shutdown drains: an in-flight compute finishes and its
// client gets a full answer, while new work is refused with 503.
func TestGracefulShutdownDrains(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	gate := make(chan struct{})
	entered := make(chan struct{}, 4)
	s.computeHook = func(string) {
		entered <- struct{}{}
		<-gate
	}

	inflight := make(chan *http.Response, 1)
	go func() {
		body, _ := json.Marshal(EstimateRequest{Layer: 1, Corpus: "perf", N: 32})
		resp, err := http.Post(hs.URL+"/v1/estimate", "application/json", bytes.NewReader(body))
		if err != nil {
			panic(err)
		}
		inflight <- resp
	}()
	<-entered

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()

	// While draining: new work refused, health reports draining.
	waitFor(t, "server draining", func() bool {
		resp, err := http.Get(hs.URL + "/healthz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	resp := postJSON(t, hs.URL+"/v1/estimate", EstimateRequest{Layer: 2, Corpus: "perf", N: 99})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain got %d, want 503", resp.StatusCode)
	}
	readAll(t, resp)

	select {
	case <-closed:
		t.Fatal("Close returned before the in-flight job finished")
	default:
	}
	close(gate)
	<-closed

	r := <-inflight
	if r.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request got %d after drain, want 200", r.StatusCode)
	}
	var er EstimateResponse
	if err := json.Unmarshal(readAll(t, r), &er); err != nil {
		t.Fatalf("drained job returned bad body: %v", err)
	}
	direct, err := bench.RunCorpusEstimate(1, "perf", 32, fault.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	if er.EnergyBits != EnergyBits(direct.EnergyJ) {
		t.Fatal("drained job returned wrong result")
	}
}

// A request deadline propagates into the compute as context
// cancellation: an expired deadline answers 504 instead of occupying
// the worker.
func TestDeadlinePropagates(t *testing.T) {
	s, hs, _ := newTestServer(t, Options{Workers: 1})
	var slow atomic.Bool
	slow.Store(true)
	s.computeHook = func(string) {
		if slow.Load() {
			time.Sleep(30 * time.Millisecond)
		}
	}
	resp := postJSON(t, hs.URL+"/v1/estimate",
		EstimateRequest{Layer: 2, Corpus: "perf", N: 24, DeadlineMs: 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline got %d, want 504", resp.StatusCode)
	}
	readAll(t, resp)

	// Expired computes are not cached: a later identical request with
	// a sane deadline computes fresh and succeeds.
	slow.Store(false)
	resp = postJSON(t, hs.URL+"/v1/estimate", EstimateRequest{Layer: 2, Corpus: "perf", N: 24})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after expiry got %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("failed compute was cached: X-Cache = %q", got)
	}
	readAll(t, resp)
}

// The sweep deadline reaches the sweep engine itself: a sweep too
// large for its deadline is aborted by SweepContext and answers 504.
func TestSweepDeadlineReachesEngine(t *testing.T) {
	_, hs, _ := newTestServer(t, Options{Workers: 1, SweepWorkers: 1})
	resp := postJSON(t, hs.URL+"/v1/sweep", SweepRequest{DeadlineMs: 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline-1ms full sweep got %d, want 504", resp.StatusCode)
	}
	readAll(t, resp)
}

// Sweep responses: NDJSON rows in deterministic order, cache hits
// byte-identical, rows bit-equal to a direct engine run — including
// under a fault-plan axis.
func TestSweepCacheBitEqual(t *testing.T) {
	_, hs, client := newTestServer(t, Options{Workers: 2})
	req := SweepRequest{
		Layers:    []int{1, 2},
		Orgs:      []string{"burst4"},
		Workloads: []string{"arith-loop"},
		Faults:    []string{"none", "flaky"},
	}
	cold := postJSON(t, hs.URL+"/v1/sweep", req)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold sweep status %d: %s", cold.StatusCode, readAll(t, cold))
	}
	coldBody := readAll(t, cold)
	warm := postJSON(t, hs.URL+"/v1/sweep", req)
	if got := warm.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("warm sweep X-Cache = %q, want hit", got)
	}
	warmBody := readAll(t, warm)
	if !bytes.Equal(coldBody, warmBody) {
		t.Fatal("sweep cache hit not byte-identical to fresh compute")
	}

	rows, trailer, err := ParseSweepBody(warmBody)
	if err != nil {
		t.Fatal(err)
	}
	if !trailer.Done || len(trailer.Errors) != 0 || trailer.Rows != len(rows) {
		t.Fatalf("bad trailer: %+v", trailer)
	}

	var wls []javacard.Workload
	for _, w := range javacard.Workloads() {
		if w.Name == "arith-loop" {
			wls = append(wls, w)
		}
	}
	direct, err := explore.SweepWith(explore.SweepOpts{Faults: []string{"none", "flaky"}},
		[]int{1, 2}, []javacard.Organization{javacard.OrgBurst}, explore.AddrMaps, wls)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(direct) {
		t.Fatalf("served %d rows, direct sweep has %d", len(rows), len(direct))
	}
	for i, row := range rows {
		want := direct[i]
		if row.EnergyBits != EnergyBits(want.BusEnergyJ) {
			t.Fatalf("row %d energy bits %s != direct %s", i, row.EnergyBits, EnergyBits(want.BusEnergyJ))
		}
		if row.Cycles != want.Cycles || row.Workload != want.Workload ||
			row.Layer != want.Config.Layer || row.Org != want.Config.Org.String() ||
			row.AddrMap != want.Config.AddrMap || row.Fault != want.Config.Fault ||
			row.Tx != want.Transactions || row.Steps != want.Steps {
			t.Fatalf("row %d mismatch: %+v vs %+v", i, row, want)
		}
	}

	// The client path decodes the same stream.
	crows, ctrailer, err := client.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(crows) != len(rows) || ctrailer.Key != trailer.Key {
		t.Fatalf("client sweep mismatch: %d rows key %s", len(crows), ctrailer.Key)
	}
}

// The fidelity knob over the wire: screen streams predictions, confirm
// streams exact survivors bit-identical to the exhaustive rows, both
// carry the screened/pruned/confirmed accounting and calibrated ε in
// the trailer, and cached bodies replay verbatim. The exhaustive
// trailer stays free of screening metadata.
func TestSweepFidelityKnob(t *testing.T) {
	_, hs, client := newTestServer(t, Options{Workers: 2})
	base := SweepRequest{
		Layers:    []int{1, 2, 3},
		Orgs:      []string{"burst4", "byte-staged"},
		AddrMaps:  []string{"near", "far"},
		Workloads: []string{"arith-loop"},
		Faults:    []string{"none", "flaky"},
	}

	exact := base
	exactRows, exactTrailer, err := client.Sweep(context.Background(), exact)
	if err != nil {
		t.Fatal(err)
	}
	if exactTrailer.Fidelity != "" || exactTrailer.Screened != 0 || exactTrailer.EpsEnergy != nil {
		t.Fatalf("exhaustive trailer leaked screening metadata: %+v", exactTrailer)
	}
	exactBy := map[string]SweepRow{}
	for _, r := range exactRows {
		exactBy[fmt.Sprintf("%s|%d|%s|%s|%s", r.Workload, r.Layer, r.Org, r.AddrMap, r.Fault)] = r
	}

	conf := base
	conf.Fidelity = "confirm"
	cold := postJSON(t, hs.URL+"/v1/sweep", conf)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("confirm sweep status %d: %s", cold.StatusCode, readAll(t, cold))
	}
	coldBody := readAll(t, cold)
	warm := postJSON(t, hs.URL+"/v1/sweep", conf)
	if got := warm.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("warm confirm sweep X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(coldBody, readAll(t, warm)) {
		t.Fatal("confirm sweep cache hit not byte-identical")
	}
	rows, trailer, err := ParseSweepBody(coldBody)
	if err != nil {
		t.Fatal(err)
	}
	if len(trailer.Errors) != 0 {
		t.Fatalf("confirm sweep errors: %v", trailer.Errors)
	}
	if trailer.Fidelity != "confirm" || trailer.Screened != len(exactRows) ||
		trailer.Confirmed != len(rows) || trailer.Pruned != trailer.Screened-trailer.Confirmed {
		t.Fatalf("confirm accounting off: %+v (rows %d, space %d)", trailer, len(rows), len(exactRows))
	}
	if trailer.Pruned == 0 || trailer.Confirmed == 0 {
		t.Fatalf("confirm sweep should both prune and confirm: %+v", trailer)
	}
	for l := range map[string]bool{"1": true, "2": true, "3": true} {
		if trailer.EpsEnergy[l] <= 0 || trailer.EpsCycles[l] <= 0 {
			t.Fatalf("trailer ε missing for layer %s: %+v / %+v", l, trailer.EpsEnergy, trailer.EpsCycles)
		}
	}
	for i, r := range rows {
		if r.Predicted || r.Kept {
			t.Fatalf("confirm row %d carries screening flags: %+v", i, r)
		}
		want, ok := exactBy[fmt.Sprintf("%s|%d|%s|%s|%s", r.Workload, r.Layer, r.Org, r.AddrMap, r.Fault)]
		if !ok {
			t.Fatalf("confirmed row %d not in exhaustive sweep: %+v", i, r)
		}
		if r != want {
			t.Fatalf("confirmed row %d not bit-identical to exhaustive: %+v vs %+v", i, r, want)
		}
	}

	screen := base
	screen.Fidelity = "screen"
	sRows, sTrailer, err := client.Sweep(context.Background(), screen)
	if err != nil {
		t.Fatal(err)
	}
	if sTrailer.Fidelity != "screen" || sTrailer.Screened != len(exactRows) ||
		sTrailer.Confirmed != 0 || len(sRows) != len(exactRows) {
		t.Fatalf("screen accounting off: %+v (rows %d)", sTrailer, len(sRows))
	}
	kept := 0
	for i, r := range sRows {
		if !r.Predicted {
			t.Fatalf("screen row %d not marked predicted: %+v", i, r)
		}
		if r.Tx != 0 || r.Retries != 0 || r.Steps != 0 {
			t.Fatalf("screen row %d carries exact-only counters: %+v", i, r)
		}
		if r.Kept {
			kept++
		}
	}
	if kept != sTrailer.Screened-sTrailer.Pruned {
		t.Fatalf("screen kept %d rows, trailer says %d", kept, sTrailer.Screened-sTrailer.Pruned)
	}
	if kept != trailer.Confirmed {
		t.Fatalf("screen kept %d, confirm confirmed %d — same space should agree", kept, trailer.Confirmed)
	}
}

// Async jobs: 202 + handle, poll to done, and the job result is the
// same cached body a synchronous request gets.
func TestAsyncSweepJob(t *testing.T) {
	_, hs, client := newTestServer(t, Options{Workers: 2})
	req := SweepRequest{
		Layers:    []int{1},
		Orgs:      []string{"packed-word"},
		AddrMaps:  []string{"near"},
		Workloads: []string{"arith-loop"},
	}
	async := req
	async.Async = true
	resp := postJSON(t, hs.URL+"/v1/sweep", async)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async sweep status %d, want 202", resp.StatusCode)
	}
	var job Job
	if err := json.Unmarshal(readAll(t, resp), &job); err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.Key == "" {
		t.Fatalf("bad job handle: %+v", job)
	}
	getJob := func(path string) *http.Response {
		resp, err := http.Get(hs.URL + "/v1/jobs/" + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	waitFor(t, "job completion", func() bool {
		var j Job
		resp := getJob(job.ID)
		return resp.StatusCode == http.StatusOK && json.Unmarshal(readAll(t, resp), &j) == nil && j.Status == "done"
	})
	resp = getJob(job.ID + "/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job result status %d", resp.StatusCode)
	}
	if rt, _ := RouteFor(job.Kind); resp.Header.Get("Content-Type") != rt.ContentType || rt.ContentType != ndjson {
		t.Fatalf("job result Content-Type %q, want the %s row's %q", resp.Header.Get("Content-Type"), job.Kind, rt.ContentType)
	}
	rows, trailer, err := ParseSweepBody(readAll(t, resp))
	if err != nil {
		t.Fatal(err)
	}
	if trailer.Key != job.Key || len(rows) != trailer.Rows || len(rows) == 0 {
		t.Fatalf("job result inconsistent: %d rows, trailer %+v", len(rows), trailer)
	}
	// Synchronous request for the same content: a pure cache hit with
	// the identical stream.
	srows, strailer, err := client.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if strailer.Key != trailer.Key || len(srows) != len(rows) {
		t.Fatal("sync sweep after async job disagrees")
	}
	for i := range rows {
		if srows[i] != rows[i] {
			t.Fatalf("row %d differs between job result and sync sweep", i)
		}
	}

	resp = getJob("job-nope")
	if body := readAll(t, resp); resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "unknown job") {
		t.Fatalf("unknown job id not rejected: %d %s", resp.StatusCode, body)
	}
}

// Validation errors answer 400 with a message naming the valid
// vocabulary — no silent fallbacks.
func TestRequestValidation(t *testing.T) {
	_, hs, _ := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		path string
		req  any
		want string
	}{
		{"/v1/estimate", EstimateRequest{Layer: 3}, "valid layers"},
		{"/v1/estimate", EstimateRequest{Layer: 1, Corpus: "nope"}, "valid corpora"},
		{"/v1/estimate", EstimateRequest{Layer: 1, Fault: "bogus"}, "fault"},
		{"/v1/estimate", EstimateRequest{Layer: 1, N: maxEstimateN + 1}, "exceeds limit 4096"},
		{"/v1/sweep", SweepRequest{Layers: []int{0}}, "valid layers"},
		{"/v1/sweep", SweepRequest{Orgs: []string{"nope"}}, "organization"},
		{"/v1/sweep", SweepRequest{AddrMaps: []string{"warp"}}, "address map"},
		{"/v1/sweep", SweepRequest{Workloads: []string{"nope"}}, "workload"},
		{"/v1/sweep", SweepRequest{Faults: []string{"bogus"}}, "valid plans"},
		{"/v1/sweep", SweepRequest{Fidelity: "turbo"}, "fidelity"},
	}
	for _, tc := range cases {
		resp := postJSON(t, hs.URL+tc.path, tc.req)
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %+v: status %d, want 400", tc.path, tc.req, resp.StatusCode)
		}
		if !strings.Contains(string(body), tc.want) {
			t.Fatalf("%s %+v: error %s does not mention %q", tc.path, tc.req, body, tc.want)
		}
	}
}

// /metricz renders the server registry; /healthz answers ok.
func TestMetriczAndHealthz(t *testing.T) {
	_, hs, _ := newTestServer(t, Options{Workers: 1})
	health, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, health); health.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", health.StatusCode)
	}
	postJSON(t, hs.URL+"/v1/estimate", EstimateRequest{Layer: 2, Corpus: "perf", N: 16}).Body.Close()
	resp, err := http.Get(hs.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	text := string(readAll(t, resp))
	for _, want := range []string{"estimation server metrics", "estimate=1", "cache", "version"} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metricz missing %q:\n%s", want, text)
		}
	}
}
