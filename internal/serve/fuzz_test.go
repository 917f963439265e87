package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
)

// FuzzRequestBodies feeds arbitrary bytes to every route-table row's
// strict decode → canonicalize → key step, without computing. The step
// must never panic; every failure must be a 400 from the real handler;
// and a decoded request, re-marshalled and parsed again, must key to
// the same content address, so neither field order, nor duplicate or
// case-folded fields, nor canonicalization can move a key. The seed
// corpus holds one valid body per endpoint plus the strict-decode
// boundary bodies: an unknown field and data after the object.
func FuzzRequestBodies(f *testing.F) {
	// The corpus generators behind the estimate and batch keys become
	// empty stand-ins on fresh memos: a mutated runs or n field must not
	// cost a million-transaction corpus per input. The key bytes of real
	// corpora are pinned by key_memo_test.go and the key stability tests.
	corpus, campaign, ekeys, digests := corpusGen, campaignGen, estimateKeys, campaignDigests
	corpusGen = func(string, int) ([]core.Item, error) { return nil, nil }
	campaignGen = func(uint64, int, int) []batch.Run { return nil }
	estimateKeys = newMemo[estimateID, string](maxEstimateKeys)
	campaignDigests = newMemo[campaignKey, [sha256.Size]byte](maxCampaignDigests)
	f.Cleanup(func() { corpusGen, campaignGen, estimateKeys, campaignDigests = corpus, campaign, ekeys, digests })
	s := New(Options{Workers: 1})
	f.Cleanup(s.Close)

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, rt := range routes {
			req, err := Parse(rt.Name, body)
			if err != nil {
				// Only refused bodies reach the handler: it answers
				// before anything is scheduled.
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+rt.Name, bytes.NewReader(body)))
				if rec.Code != http.StatusBadRequest || !strings.HasPrefix(err.Error(), "serve: ") {
					t.Fatalf("%s %q: Parse error %q, handler status %d; want a serve: error answered 400",
						rt.Name, body, err, rec.Code)
				}
				continue
			}
			again, err := json.Marshal(req.Body)
			if err != nil {
				t.Fatalf("%s %q: re-marshal: %v", rt.Name, body, err)
			}
			req2, err := Parse(rt.Name, again)
			if err != nil {
				t.Fatalf("%s %q: re-marshalled as %s, refused: %v", rt.Name, body, again, err)
			}
			if req2.Key != req.Key {
				t.Fatalf("%s %q: key %s, re-marshalled %s keys to %s", rt.Name, body, req.Key, again, req2.Key)
			}
		}
	})
}
