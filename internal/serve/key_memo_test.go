package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/batch"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fault"
)

// Content keys that would otherwise regenerate a corpus per request —
// estimate keys and campaign digests — are memoized in one bounded memo
// type. These tests pin that the memo changes no key byte, that a
// repeated request generates its corpus once, and that the memo stays
// inside its cap.

// scratchEstimateKey computes an estimate's content key from scratch,
// exactly as the unmemoized key did: the reference the memo must match.
func scratchEstimateKey(c canonEstimate) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00estimate\x00layer=%d\x00corpus=%s\x00n=%d\x00fault=%s\x00",
		Version, c.Layer, c.Corpus, c.N, c.Spec)
	if items, err := bench.CorpusItems(c.Corpus, c.N); err == nil {
		h.Write(itemBytes(items))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEstimateKeyMemoMatchesScratch: over every layer × corpus × named
// fault plan (plus one key=value spec) × n, the memoized key — on its
// first call and on the warm call after it — equals the from-scratch
// key. A digest over the whole matrix, and the default request's key,
// are pinned to the values the unmemoized code produced, so no key byte
// moved.
func TestEstimateKeyMemoMatchesScratch(t *testing.T) {
	specs := append(append([]string{}, fault.Names...), "rerr=25,seed=7")
	all := sha256.New()
	for _, layer := range []int{0, 1, 2} {
		for _, corpus := range bench.Corpora {
			for _, f := range specs {
				for _, n := range []int{1, 256, 2048, 4096} {
					c, err := canonicalizeEstimate(EstimateRequest{Layer: layer, Corpus: corpus, N: n, Fault: f})
					if err != nil {
						t.Fatal(err)
					}
					want := scratchEstimateKey(c)
					if got := c.key(); got != want {
						t.Fatalf("%+v: memoized key %s, from scratch %s", c, got, want)
					}
					if got := c.key(); got != want {
						t.Fatalf("%+v: warm memoized key %s, from scratch %s", c, got, want)
					}
					fmt.Fprintf(all, "%s\n", want)
				}
			}
		}
	}
	const matrix = "07b7b4347e3b90c2b51bf05fc09d33fb465818427842bccb3d281a57d01cae60"
	if got := hex.EncodeToString(all.Sum(nil)); got != matrix {
		t.Fatalf("estimate key matrix digest %s, want %s", got, matrix)
	}
	const defaultKey = "aad154e3bbe2b02a8dd7c2b57a8aade181461e413ebc6db1b05d3008676fab7c"
	if got, err := EstimateKey(EstimateRequest{}); err != nil || got != defaultKey {
		t.Fatalf("default estimate key %s (%v), want %s", got, err, defaultKey)
	}
}

// countCorpusGen swaps the estimate key's corpus generator for one that
// counts its invocations, restoring it when the test ends.
func countCorpusGen(t *testing.T) *atomic.Int64 {
	t.Helper()
	orig := corpusGen
	t.Cleanup(func() { corpusGen = orig })
	var calls atomic.Int64
	corpusGen = func(name string, n int) ([]core.Item, error) {
		calls.Add(1)
		return orig(name, n)
	}
	return &calls
}

// TestCanonicalizeEstimateGeneratesNoCorpus: validation checks the
// corpus name against the vocabulary without building any corpus, and
// an unknown corpus still answers the generator's error text.
func TestCanonicalizeEstimateGeneratesNoCorpus(t *testing.T) {
	calls := countCorpusGen(t)
	for _, req := range []EstimateRequest{
		{},
		{Layer: 2, Corpus: "perf", N: maxEstimateN, Fault: "storm"},
		{Layer: 1, Corpus: "verification", N: 1 << 30},
	} {
		if _, err := canonicalizeEstimate(req); err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
	}
	_, err := canonicalizeEstimate(EstimateRequest{Corpus: "nope"})
	const want = `serve: bench: unknown corpus "nope" (valid corpora: verification, perf)`
	if err == nil || err.Error() != want {
		t.Fatalf("unknown corpus error %v, want %s", err, want)
	}
	if got := calls.Load(); got != 0 {
		t.Fatalf("canonicalization generated %d corpora, want 0", got)
	}
}

// TestEstimateKeyMemoized: seventeen key computations for one request
// generate its corpus exactly once; a request differing in any tuple
// element is a fresh generation.
func TestEstimateKeyMemoized(t *testing.T) {
	calls := countCorpusGen(t)
	// A fault seed nothing else uses, so the shared memo cannot
	// pre-contain the tuple.
	base := EstimateRequest{Layer: 1, Corpus: "perf", N: 1237, Fault: "seed=61453"}
	c, err := canonicalizeEstimate(base)
	if err != nil {
		t.Fatal(err)
	}
	k1 := c.key()
	for i := 0; i < 16; i++ {
		if k2 := c.key(); k2 != k1 {
			t.Fatalf("key unstable across calls: %s vs %s", k2, k1)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("17 key computations generated the corpus %d times, want 1", got)
	}
	for i, alt := range []EstimateRequest{
		{Layer: 2, Corpus: "perf", N: 1237, Fault: "seed=61453"},
		{Layer: 1, Corpus: "perf", N: 1238, Fault: "seed=61453"},
		{Layer: 1, Corpus: "perf", N: 1237, Fault: "seed=61454"},
	} {
		ca, err := canonicalizeEstimate(alt)
		if err != nil {
			t.Fatal(err)
		}
		if ca.key() == k1 {
			t.Fatalf("variant %d collided with the base key", i)
		}
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("3 distinct tuples after the base generated %d corpora in total, want 4", got)
	}
}

// TestMemoBounded: the memo forgets its oldest entries first and never
// holds more than its cap, and the estimate-key memo stays inside its
// own cap under unbounded request diversity.
func TestMemoBounded(t *testing.T) {
	m := newMemo[int, int](4)
	computes := 0
	square := func(k int) int {
		return m.get(k, func() int { computes++; return k * k })
	}
	for k := 0; k < 100; k++ {
		if got := square(k); got != k*k {
			t.Fatalf("get(%d) = %d", k, got)
		}
		if m.len() > 4 {
			t.Fatalf("memo holds %d entries, cap is 4", m.len())
		}
	}
	computes = 0
	for k := 96; k < 100; k++ { // the four newest are still held
		square(k)
	}
	if computes != 0 {
		t.Fatalf("the newest entries were recomputed %d times", computes)
	}
	square(0) // the oldest is gone
	if computes != 1 {
		t.Fatal("an evicted entry was not recomputed")
	}

	for i := 0; i < maxEstimateKeys+32; i++ {
		c, err := canonicalizeEstimate(EstimateRequest{N: 1, Fault: fmt.Sprintf("seed=%d", 0xB0DE_0000+i)})
		if err != nil {
			t.Fatal(err)
		}
		c.key()
	}
	if n := estimateKeys.len(); n > maxEstimateKeys {
		t.Fatalf("estimate memo holds %d keys, cap is %d", n, maxEstimateKeys)
	}
}

// TestMemoConcurrent: goroutines sharing keys each get the value of
// their key, whichever of them computed it, and the cap holds.
func TestMemoConcurrent(t *testing.T) {
	m := newMemo[int, int](8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (i + g) % 16
				if got := m.get(k, func() int { return 3 * k }); got != 3*k {
					t.Errorf("get(%d) = %d, want %d", k, got, 3*k)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := m.len(); n > 8 {
		t.Fatalf("memo holds %d entries, cap is 8", n)
	}
}

// TestCampaignDigestMemoized is the batch key's counterpart: computing
// a batch key must generate the campaign corpus exactly once per
// (seed, runs, n) — every later key computation for the same campaign
// reuses the memoized digest, whatever the request rate.
func TestCampaignDigestMemoized(t *testing.T) {
	orig := campaignGen
	t.Cleanup(func() { campaignGen = orig })
	var calls atomic.Int64
	campaignGen = func(seed uint64, runs, n int) []batch.Run {
		calls.Add(1)
		return orig(seed, runs, n)
	}

	// Seeds nothing else uses, so the shared memo cannot pre-contain them.
	req := BatchRequest{Layer: 0, Seed: 0xFEED_0001, Runs: 4, N: 32}
	c, err := canonicalizeBatch(req)
	if err != nil {
		t.Fatal(err)
	}
	k1 := c.key()
	for i := 0; i < 16; i++ {
		if k2 := c.key(); k2 != k1 {
			t.Fatalf("key unstable across calls: %s vs %s", k2, k1)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("17 key computations generated the corpus %d times, want 1", got)
	}

	// A different campaign is a fresh generation — the memo keys on the
	// full (seed, runs, n) identity.
	for i, alt := range []BatchRequest{
		{Layer: 0, Seed: 0xFEED_0002, Runs: 4, N: 32},
		{Layer: 0, Seed: 0xFEED_0001, Runs: 5, N: 32},
		{Layer: 0, Seed: 0xFEED_0001, Runs: 4, N: 33},
	} {
		ca, err := canonicalizeBatch(alt)
		if err != nil {
			t.Fatal(err)
		}
		if ca.key() == k1 {
			t.Fatalf("variant %d collided with the base key", i)
		}
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("3 distinct campaigns after the base generated %d extra corpora, want 3 (total 4, got %d)",
			got-1, got)
	}
}

// TestCampaignDigestBounded: request diversity must not grow the
// campaign-digest memo past its cap.
func TestCampaignDigestBounded(t *testing.T) {
	for i := 0; i < maxCampaignDigests+32; i++ {
		campaignDigest(0xB0DE_0000+uint64(i), 1, 1)
	}
	if n := campaignDigests.len(); n > maxCampaignDigests {
		t.Fatalf("memo holds %d digests, cap is %d", n, maxCampaignDigests)
	}
}

// Once a key is memoized its cost is independent of the corpus size:
// the warm ns/op of a small request and of one 64× (estimate) or 4096×
// (campaign) larger should be indistinguishable, because neither
// regenerates its corpus.

func benchmarkEstimateKeyWarm(b *testing.B, n int) {
	c, err := canonicalizeEstimate(EstimateRequest{Layer: 2, N: n, Fault: fmt.Sprintf("seed=%d", 0xBE9C_0000+n)})
	if err != nil {
		b.Fatal(err)
	}
	c.key() // warm the memo: the one allowed corpus generation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.key() == "" {
			b.Fatal("empty key")
		}
	}
}

func BenchmarkEstimateKeyWarmSmall(b *testing.B) { benchmarkEstimateKeyWarm(b, 64) }

func BenchmarkEstimateKeyWarmLarge(b *testing.B) { benchmarkEstimateKeyWarm(b, 4096) }

func benchmarkBatchKeyWarm(b *testing.B, runs, n int) {
	c, err := canonicalizeBatch(BatchRequest{Layer: 0, Seed: 0xBE9C_0000 + uint64(runs*n), Runs: runs, N: n})
	if err != nil {
		b.Fatal(err)
	}
	c.key() // warm the memo: the one allowed corpus generation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.key() == "" {
			b.Fatal("empty key")
		}
	}
}

func BenchmarkBatchKeyWarmSmall(b *testing.B) { benchmarkBatchKeyWarm(b, 4, 64) }

func BenchmarkBatchKeyWarmLarge(b *testing.B) { benchmarkBatchKeyWarm(b, 256, 4096) }
