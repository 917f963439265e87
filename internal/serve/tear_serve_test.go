package serve

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
)

// TestSweepTearAxesOverWire pins the tear/journal axes through the wire
// format: rows carry the new fields, torn cells report a recovery
// figure with its bit pattern, and the distributed fan-out (ExpandSweep
// → /v1/config per cell) reassembles the identical body.
func TestSweepTearAxesOverWire(t *testing.T) {
	s, hs, _ := newTestServer(t, Options{Workers: 2})
	req := SweepRequest{
		Layers:    []int{1},
		Orgs:      []string{"halfword"},
		AddrMaps:  []string{"near"},
		Workloads: []string{"stack-churn"},
		Tears:     []string{"none", "tear-early"},
		Journals:  []string{"none", "word-eager"},
	}
	resp := postJSON(t, hs.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	body := readAll(t, resp)
	rows, trailer, err := ParseSweepBody(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || !trailer.Done {
		t.Fatalf("%d rows (trailer %+v), want 4", len(rows), trailer)
	}
	// Canonical order: tears outer, journals innermost.
	wantAxes := []struct{ tear, journal string }{
		{"", ""}, {"", "word-eager"}, {"tear-early", ""}, {"tear-early", "word-eager"},
	}
	for i, w := range wantAxes {
		if rows[i].Tear != w.tear || rows[i].Journal != w.journal {
			t.Fatalf("row %d axes (%q, %q), want (%q, %q)",
				i, rows[i].Tear, rows[i].Journal, w.tear, w.journal)
		}
	}
	for _, r := range rows {
		if r.Tear == "" && r.Journal == "" {
			if r.Torn || r.RecoveryJ != 0 || r.RecoveryBits != "" {
				t.Fatalf("clean row carries tear outcome: %+v", r)
			}
			continue
		}
		if r.Tear == "" {
			// Journal-only cells still replay at power-up; they must not
			// report a cut.
			if r.Torn || r.CutCycle != 0 {
				t.Fatalf("untorn journaled row reports a cut: %+v", r)
			}
		} else if !r.Torn || r.CutCycle == 0 {
			t.Fatalf("torn row missed its cut: %+v", r)
		}
		if r.Journal != "" {
			if r.RecoveryJ <= 0 || r.RecoveryBits != EnergyBits(r.RecoveryJ) {
				t.Fatalf("journaled row recovery broken: %+v", r)
			}
		}
	}

	// Distributed reassembly: tears then journals enumerate innermost and
	// their rows render to the identical single-node body.
	key, configs, err := ExpandSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) != 4 {
		t.Fatalf("%d configs, want 4", len(configs))
	}
	var cfgRows []SweepRow
	for _, cr := range configs {
		row, err := s.ConfigRowInline(t.Context(), cr)
		if err != nil {
			t.Fatal(err)
		}
		cfgRows = append(cfgRows, row)
	}
	assembled, err := SweepBody(key, cfgRows)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(assembled, body) {
		t.Fatalf("reassembled body differs from single-node sweep:\n%s\nvs\n%s", assembled, body)
	}
}

// TestScreenRowsCarryTearAndJournal: a screen sweep's rows name their
// tear plan and journal strategy like exact rows do, so every cell of
// the cross product is its own row, in ExpandSweep's order.
func TestScreenRowsCarryTearAndJournal(t *testing.T) {
	_, _, client := newTestServer(t, Options{Workers: 2})
	req := SweepRequest{
		Layers:    []int{1, 2},
		Orgs:      []string{"halfword"},
		AddrMaps:  []string{"near"},
		Workloads: []string{"arith-loop"},
		Tears:     []string{"", "tear-mid"},
		Journals:  []string{"", "word-eager"},
		Fidelity:  "screen",
	}
	rows, _, err := client.Sweep(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	_, cells, err := ExpandSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cells) {
		t.Fatalf("%d screen rows, want %d", len(rows), len(cells))
	}
	for i, r := range rows {
		c := cells[i]
		if !r.Predicted || r.Layer != c.Layer || r.Tear != c.Tear || r.Journal != c.Journal {
			t.Errorf("screen row %d is L%d tear %q journal %q, want L%d tear %q journal %q",
				i, r.Layer, r.Tear, r.Journal, c.Layer, c.Tear, c.Journal)
		}
	}
}

// TestSweepCleanRowsByteStable pins the compatibility contract: a sweep
// that never mentions the tear/journal axes renders rows with none of
// the new JSON fields present.
func TestSweepCleanRowsByteStable(t *testing.T) {
	_, hs, _ := newTestServer(t, Options{Workers: 1})
	resp := postJSON(t, hs.URL+"/v1/sweep", SweepRequest{
		Layers:    []int{1},
		Orgs:      []string{"halfword"},
		AddrMaps:  []string{"near"},
		Workloads: []string{"stack-churn"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	body := string(readAll(t, resp))
	for _, field := range []string{"tear", "journal", "torn", "cut_cycle", "recovery_j", "recovery_bits"} {
		if strings.Contains(body, `"`+field+`"`) {
			t.Fatalf("clean sweep body leaks %q:\n%s", field, body)
		}
	}
}

// TestSweepTearAxisRejections pins the 400-class vocabulary and
// combination errors for the new axes.
func TestSweepTearAxisRejections(t *testing.T) {
	base := SweepRequest{
		Layers:    []int{1},
		Orgs:      []string{"halfword"},
		AddrMaps:  []string{"near"},
		Workloads: []string{"stack-churn"},
	}
	cases := []struct {
		name string
		mut  func(r *SweepRequest)
		want string
	}{
		{"unknown tear", func(r *SweepRequest) { r.Tears = []string{"tear-sideways"} }, "tear"},
		{"unknown journal", func(r *SweepRequest) { r.Journals = []string{"word-sometimes"} }, "journal"},
		{"analytic layer", func(r *SweepRequest) {
			r.Layers = []int{3}
			r.Tears = []string{"tear-early"}
		}, "timed layers"},
		{"arbitration", func(r *SweepRequest) {
			r.Arbs = []string{"rr"}
			r.Journals = []string{"word-eager"}
		}, "single-master"},
	}
	for _, tc := range cases {
		req := base
		tc.mut(&req)
		_, err := canonicalizeSweep(req)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	// Inactive entries ("none") do not trigger the combination rules.
	ok := base
	ok.Layers = []int{3}
	ok.Tears = []string{"none"}
	ok.Journals = []string{"none"}
	if _, err := canonicalizeSweep(ok); err != nil {
		t.Fatalf("inactive tear/journal entries rejected: %v", err)
	}

	// The same rules hold for single configurations.
	cfg := ConfigRequest{Workload: "stack-churn", Layer: 1, Org: "halfword", AddrMap: "near"}
	bad := cfg
	bad.Tear = "tear-sideways"
	if _, err := canonicalizeConfig(bad); err == nil {
		t.Fatal("unknown config tear plan accepted")
	}
	bad = cfg
	bad.Layer = 3
	bad.Journal = "word-eager"
	if _, err := canonicalizeConfig(bad); err == nil {
		t.Fatal("analytic-layer journaled config accepted")
	}
	bad = cfg
	bad.Arb = "rr"
	bad.Tear = "tear-mid"
	if _, err := canonicalizeConfig(bad); err == nil {
		t.Fatal("arbitrated torn config accepted")
	}
}

// TestSweepKeyTearAxes pins the content address: both new axes, and
// their order, are part of the key at sweep and config granularity.
func TestSweepKeyTearAxes(t *testing.T) {
	k := func(r SweepRequest) string {
		c, err := canonicalizeSweep(r)
		if err != nil {
			t.Fatalf("canonicalize %+v: %v", r, err)
		}
		return c.key()
	}
	if k(SweepRequest{Tears: []string{"tear-mid"}}) == k(SweepRequest{}) {
		t.Fatal("tear axis not part of the content address")
	}
	if k(SweepRequest{Journals: []string{"word-eager"}}) == k(SweepRequest{}) {
		t.Fatal("journal axis not part of the content address")
	}
	if k(SweepRequest{Tears: []string{"tear-early", "tear-mid"}}) ==
		k(SweepRequest{Tears: []string{"tear-mid", "tear-early"}}) {
		t.Fatal("tear axis order not part of the content address")
	}

	ck := func(r ConfigRequest) string {
		key, err := keyOf("config", r)
		if err != nil {
			t.Fatalf("config key %+v: %v", r, err)
		}
		return key
	}
	cfg := ConfigRequest{Workload: "stack-churn", Layer: 1, Org: "halfword", AddrMap: "near"}
	torn := cfg
	torn.Tear = "tear-mid"
	torn.Journal = "page-lazy"
	if ck(cfg) == ck(torn) {
		t.Fatal("config tear/journal fields not part of the content address")
	}
}
