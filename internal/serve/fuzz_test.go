package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
	// The corpus generator behind the estimate key becomes an empty
	// stand-in on a fresh memo: a mutated n field must not cost a corpus
	// per input. The key bytes of real corpora are pinned by
	// key_memo_test.go and the key stability tests.
	corpus, ekeys := corpusGen, estimateKeys
	corpusGen = func(string, int) ([]core.Item, error) { return nil, nil }
	estimateKeys = newMemo[estimateID, string](maxEstimateKeys)
	f.Cleanup(func() { corpusGen, estimateKeys = corpus, ekeys })
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

// FuzzResponseBodies feeds arbitrary bytes to the strict body reader
// behind every route's Check and the sweep and batch parsers. The reader
// must never panic. A body that reads as a whole sweep or batch body
// pins the truncation contract the cluster's retry decision rides on:
// every proper prefix of it — empty, cut at a line boundary, mid-line,
// or missing only its last newline — wraps ErrTruncatedBody, and any
// bytes after its trailer are corruption. The seed corpus holds real
// bodies of every endpoint and the malformed shapes the reader refuses.
func FuzzResponseBodies(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, rt := range routes {
			rt.Check(body)
		}
		parsers := []struct {
			name  string
			parse func([]byte) error
		}{
			{"sweep", func(b []byte) error { _, _, err := ParseSweepBody(b); return err }},
			{"batch", func(b []byte) error { _, _, err := ParseBatchBody(b); return err }},
		}
		for _, p := range parsers {
			if p.parse(body) != nil || len(body) > 4096 {
				continue
			}
			for i := 0; i < len(body); i++ {
				if err := p.parse(body[:i]); !errors.Is(err, ErrTruncatedBody) {
					t.Fatalf("%s body cut to %d of %d bytes: err = %v, want ErrTruncatedBody",
						p.name, i, len(body), err)
				}
			}
			for _, tail := range []string{"\n", " ", "x", "{}\n", string(body)} {
				err := p.parse(append(bytes.Clone(body), tail...))
				if err == nil || errors.Is(err, ErrTruncatedBody) {
					t.Fatalf("%s body followed by %q: err = %v, want corruption", p.name, tail, err)
				}
			}
		}
	})
}
