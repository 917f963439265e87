package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
)

// Serving-path benchmarks: the three regimes the cache creates. Cold
// requests pay one full corpus estimation; cache hits pay only HTTP
// and a map lookup; deduped concurrent requests share one compute
// between 16 clients. The EXPERIMENTS appendix quotes these figures.

// newBenchServer starts a server and returns its /v1/estimate URL.
func newBenchServer(b *testing.B, opts Options) (*Server, string) {
	b.Helper()
	s := New(opts)
	hs := httptest.NewServer(s.Handler())
	b.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs.URL + "/v1/estimate"
}

// estimate posts req to url and returns the X-Cache verdict. A failed
// post or a non-200 is reported with b.Error, so the concurrent dedup
// burst may call it too.
func estimate(b *testing.B, url string, req EstimateRequest) string {
	body, err := json.Marshal(req)
	if err != nil {
		b.Error(err)
		return ""
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		b.Error(err)
		return ""
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		b.Errorf("estimate status %d", resp.StatusCode)
	}
	return resp.Header.Get("X-Cache")
}

// benchReq builds the benchmark workload point. A nonzero seed in an
// otherwise clean fault plan changes the content address but not the
// computed work, so rotating it yields unlimited distinct cold keys
// with identical cost.
func benchReq(seed int) EstimateRequest {
	req := EstimateRequest{Layer: 2, Corpus: "perf", N: 64}
	if seed > 0 {
		req.Fault = fmt.Sprintf("seed=%d", seed)
	}
	return req
}

func BenchmarkServeEstimateCold(b *testing.B) {
	_, url := newBenchServer(b, Options{Workers: runtime.GOMAXPROCS(0), CacheEntries: b.N + 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if verdict := estimate(b, url, benchReq(i+1)); verdict != "miss" {
			b.Fatalf("iteration %d verdict %q, want miss", i, verdict)
		}
	}
}

// BenchmarkServeEstimateHit replays one cached point. The n=2048 case
// shows whether keying a hit still costs corpus-sized work.
func BenchmarkServeEstimateHit(b *testing.B) {
	for _, n := range []int{64, 2048} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			_, url := newBenchServer(b, Options{Workers: 2})
			req := benchReq(0)
			req.N = n
			estimate(b, url, req)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if verdict := estimate(b, url, req); verdict != "hit" {
					b.Fatalf("iteration %d verdict %q, want hit", i, verdict)
				}
			}
		})
	}
}

// BenchmarkServeEstimateDedup16 issues 16 concurrent identical
// requests per iteration under a fresh key; the per-op time is the
// wall-clock for the whole deduped burst (one compute, 16 responses).
func BenchmarkServeEstimateDedup16(b *testing.B) {
	s, url := newBenchServer(b, Options{Workers: 2, CacheEntries: b.N + 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				estimate(b, url, benchReq(i+1))
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	if computes := s.Registry().Snapshot().Computes; computes != uint64(b.N) {
		b.Fatalf("%d computes for %d deduped bursts", computes, b.N)
	}
}
