package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// newBatchTestServer spins up a small server for the batch endpoint
// tests and returns its /v1/batch URL.
func newBatchTestServer(t *testing.T) string {
	t.Helper()
	s := New(Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts.URL + "/v1/batch"
}

// TestBatchWidthInvariantCache pins the /v1/batch width-invariance
// contract: two requests differing only in lane width share one cache
// entry, the second is a HIT, and the decoded per-run results (down to
// the energy bit patterns) are identical.
func TestBatchWidthInvariantCache(t *testing.T) {
	url := newBatchTestServer(t)

	req := BatchRequest{Layer: 1, Seed: 7, Runs: 8, N: 24, Fault: "grind", Width: 1}
	resp := postJSON(t, url, req)
	verdict1 := resp.Header.Get("X-Cache")
	rows1, tr1, err := ParseBatchBody(readAll(t, resp))
	if err != nil {
		t.Fatalf("batch width 1: %v", err)
	}
	if verdict1 != "miss" {
		t.Fatalf("first batch verdict %q, want miss", verdict1)
	}
	if !tr1.Done || tr1.Rows != 8 || len(rows1) != 8 {
		t.Fatalf("bad trailer/rows: %+v, %d rows", tr1, len(rows1))
	}

	req.Width = 64 // wider than runs: capped, same campaign, same key
	resp = postJSON(t, url, req)
	verdict2 := resp.Header.Get("X-Cache")
	rows2, tr2, err := ParseBatchBody(readAll(t, resp))
	if err != nil {
		t.Fatalf("batch width 64: %v", err)
	}
	if verdict2 != "hit" {
		t.Fatalf("second batch verdict %q, want hit (width must not change the key)", verdict2)
	}
	if tr2.Key != tr1.Key {
		t.Fatalf("keys differ across widths: %s vs %s", tr1.Key, tr2.Key)
	}
	for i := range rows1 {
		if rows1[i] != rows2[i] {
			t.Fatalf("run %d differs across widths: %+v vs %+v", i, rows1[i], rows2[i])
		}
	}

	// A different seed is a different campaign: fresh compute.
	req.Seed = 8
	resp = postJSON(t, url, req)
	verdict3 := resp.Header.Get("X-Cache")
	_, tr3, err := ParseBatchBody(readAll(t, resp))
	if err != nil {
		t.Fatalf("batch seed 8: %v", err)
	}
	if verdict3 != "miss" || tr3.Key == tr1.Key {
		t.Fatalf("seed change: verdict %q key %s, want a fresh miss", verdict3, tr3.Key)
	}

	// Fault plans must change the result: grind retries, clean does not.
	retries := 0
	for _, r := range rows1 {
		retries += r.Retries
	}
	if retries == 0 {
		t.Fatal("grind campaign had no retries; fault test is vacuous")
	}
}

// TestBatchRequestValidation pins the 400 surface of /v1/batch.
func TestBatchRequestValidation(t *testing.T) {
	url := newBatchTestServer(t)
	bad := []BatchRequest{
		{Layer: 2},                       // TL2 is not batched
		{Layer: -1},                      // negative layer
		{Layer: 0, Width: 65},            // over MaxWidth
		{Layer: 0, Runs: 2000},           // over runs limit
		{Layer: 0, N: 5000},              // over n limit
		{Layer: 0, Fault: "no-such-one"}, // unknown plan
	}
	for i, req := range bad {
		resp := postJSON(t, url, req)
		if body := readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad request %d (%+v): status %d, want 400: %s", i, req, resp.StatusCode, body)
		}
	}
	resp := postJSON(t, url, BatchRequest{Layer: 0, Runs: 4, N: 8})
	if _, tr, err := ParseBatchBody(readAll(t, resp)); resp.StatusCode != http.StatusOK || err != nil || tr.Rows != 4 {
		t.Fatalf("valid minimal request failed: status %d, %v, trailer %+v", resp.StatusCode, err, tr)
	}
}
