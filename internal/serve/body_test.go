package serve

import (
	"bytes"
	"errors"
	"math"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/explore"
	"repro/internal/javacard"
)

// TestEnergyFromBitsStrict: EnergyFromBits accepts exactly what
// EnergyBits writes — 16 lower-case hex digits — and inverts it to the
// bit.
func TestEnergyFromBitsStrict(t *testing.T) {
	for _, bad := range []string{
		"3f",                 // too short: once read as 3.1e-322
		"3ff0000000000000ff", // too long: once read as 1
		"3ff000000000000g",   // a non-hex digit: once read as 2e-289
		"3FF0000000000000",   // upper case is not what EnergyBits writes
		"",
		" 3ff000000000000",
		"+3ff000000000000",
		"0x3ff0000000000000",
	} {
		if v, err := EnergyFromBits(bad); err == nil {
			t.Errorf("EnergyFromBits(%q) = %g, want an error", bad, v)
		}
	}
	for _, e := range []float64{0, math.Copysign(0, -1), 1, 2.3128467792239156e-9,
		math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(-1), math.NaN()} {
		got, err := EnergyFromBits(EnergyBits(e))
		if err != nil || math.Float64bits(got) != math.Float64bits(e) {
			t.Errorf("EnergyFromBits(EnergyBits(%g)) = %g, %v", e, got, err)
		}
	}
}

// TestPeerBodyChecksStrict: every route's Check reads a body as rows,
// exactly one closing line, then the end — so garbage after an estimate
// document, a line after a trailer and a config body that is not one
// row line are refused as corruption, while the real bodies pass and a
// body cut short stays truncation.
func TestPeerBodyChecksStrict(t *testing.T) {
	_, hs, _ := newTestServer(t, Options{Workers: 2, SweepWorkers: 1})
	bodies := map[string][]byte{}
	for _, ep := range []string{"estimate", "sweep", "batch", "config"} {
		path, req, _ := endpointProbe(t, ep)
		resp := postJSON(t, hs.URL+path, req)
		bodies[ep] = readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", ep, resp.StatusCode, bodies[ep])
		}
	}
	check := func(ep string) func([]byte) error {
		rt, ok := RouteFor(ep)
		if !ok {
			t.Fatalf("no route %q", ep)
		}
		return rt.Check
	}
	for ep, body := range bodies {
		if err := check(ep)(body); err != nil {
			t.Errorf("%s: real body refused: %v", ep, err)
		}
		if err := check(ep)(body[:len(body)-1]); !errors.Is(err, ErrTruncatedBody) {
			t.Errorf("%s: body without its last newline: %v, want truncation", ep, err)
		}
	}
	row := bodies["config"]
	corrupt := []struct {
		ep   string
		body []byte
	}{
		{"estimate", []byte(`{"key":"k"}garbage`)},
		{"estimate", append(bytes.Clone(bodies["estimate"]), bodies["estimate"]...)},
		{"estimate", []byte(`{"key":"k","bogus":1}` + "\n")},
		{"sweep", append(bytes.Clone(bodies["sweep"]), row...)},
		{"sweep", append(bytes.Clone(bodies["sweep"]), '\n')},
		{"batch", append(bytes.Clone(bodies["batch"]), `{"run":9,"cycles":1,"energy_j":0,"energy_bits":"0000000000000000","errors":0,"retries":0}`+"\n"...)},
		{"batch", append(bytes.Clone(bodies["batch"]), bodies["batch"]...)},
		{"config", []byte("x\n")},
		{"config", []byte("\n")},
		{"config", append(bytes.Clone(row), row...)},
		{"config", append(bytes.Clone(row[:len(row)-1]), ` `+"\n"...)},
	}
	for _, c := range corrupt {
		if err := check(c.ep)(c.body); err == nil || errors.Is(err, ErrTruncatedBody) {
			t.Errorf("%s %q: err = %v, want corruption", c.ep, c.body, err)
		}
	}
	if err := check("config")(nil); !errors.Is(err, ErrTruncatedBody) {
		t.Errorf("empty config body: %v, want truncation", err)
	}
}

// TestSweepOutcomesInvertRows: a sweep body read back through
// SweepOutcomes gives the results of a local sweep of the same axes, bit
// for bit, and a screen body gives its predictions, each configuration
// once with its tear and journal.
func TestSweepOutcomesInvertRows(t *testing.T) {
	_, _, client := newTestServer(t, Options{Workers: 2, SweepWorkers: 1})
	req := SweepRequest{Layers: []int{1, 2}, Orgs: []string{"halfword"}, AddrMaps: []string{"near"},
		Workloads: []string{"wallet"}, Tears: []string{"", "tear-mid"}, Journals: []string{"", "word-eager"}}
	rows, _, err := client.Sweep(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	results, preds, err := SweepOutcomes(rows)
	if err != nil || len(preds) != 0 {
		t.Fatalf("exhaustive rows: %d predictions, %v", len(preds), err)
	}
	wallet, _ := javacard.WorkloadByName("wallet")
	opts := explore.SweepOpts{Workers: 1, Tears: []string{"", "tear-mid"}, Journals: []string{"", "word-eager"}}
	local, err := explore.SweepWith(opts, req.Layers, []javacard.Organization{javacard.OrgHalf},
		req.AddrMaps, []javacard.Workload{wallet})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(results, local) {
		t.Fatalf("remote results differ from a local sweep:\n%+v\nvs\n%+v", results, local)
	}

	req.Fidelity = "screen"
	rows, _, err = client.Sweep(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	results, preds, err = SweepOutcomes(rows)
	if err != nil || len(results) != 0 || len(preds) != len(local) {
		t.Fatalf("screen rows: %d results, %d predictions (want %d), %v", len(results), len(preds), len(local), err)
	}
	for i, p := range preds {
		if p.Config != local[i].Config || p.Workload != local[i].Workload {
			t.Errorf("prediction %d is %s/%s, want %s/%s", i, p.Workload, p.Config, local[i].Workload, local[i].Config)
		}
	}
}
