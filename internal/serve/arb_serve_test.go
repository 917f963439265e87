package serve

import (
	"bytes"
	"net/http"
	"testing"

	"repro/internal/explore"
	"repro/internal/javacard"
)

// TestSweepArbAxisOverWire pins the arbitration axis through the wire
// format: the served rows carry the Arb field, match a direct in-process
// sweep of the same axes bit-for-bit, and the distributed fan-out
// (ExpandSweep → /v1/config per cell) reassembles the identical body.
func TestSweepArbAxisOverWire(t *testing.T) {
	s, hs, _ := newTestServer(t, Options{Workers: 2})
	req := SweepRequest{
		Layers:    []int{1},
		Orgs:      []string{"halfword"},
		AddrMaps:  []string{"near"},
		Workloads: []string{"stack-churn"},
		Arbs:      []string{"none", "rr"},
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
	if len(rows) != 2 || !trailer.Done {
		t.Fatalf("%d rows (trailer %+v), want 2", len(rows), trailer)
	}
	if rows[0].Arb != "" || rows[1].Arb != "rr" {
		t.Fatalf("row arbs %q, %q — want \"\", \"rr\"", rows[0].Arb, rows[1].Arb)
	}

	var wls []javacard.Workload
	for _, w := range javacard.Workloads() {
		if w.Name == "stack-churn" {
			wls = append(wls, w)
		}
	}
	direct, err := explore.SweepWith(explore.SweepOpts{Arbs: []string{"", "rr"}},
		[]int{1}, []javacard.Organization{javacard.OrgHalf}, []string{"near"}, wls)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		want := direct[i]
		if row.Arb != want.Config.Arb || row.EnergyBits != EnergyBits(want.BusEnergyJ) ||
			row.Cycles != want.Cycles || row.Tx != want.Transactions {
			t.Fatalf("row %d: %+v does not match direct result %+v", i, row, want)
		}
	}
	if rows[1].Tx <= rows[0].Tx {
		t.Fatalf("contended row carries %d tx, solo %d — contenders missing over the wire",
			rows[1].Tx, rows[0].Tx)
	}

	// Distributed reassembly: the config fan-out enumerates the arb axis
	// innermost and its rows render to the identical body.
	key, configs, err := ExpandSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) != 2 || configs[0].Arb != "" || configs[1].Arb != "rr" {
		t.Fatalf("ExpandSweep configs %+v, want arb \"\" then \"rr\"", configs)
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

// TestSweepKeyArbAxis pins the content address: the arb axis, like the
// fault axis, is part of the key, and an invalid policy is rejected.
func TestSweepKeyArbAxis(t *testing.T) {
	k := func(r SweepRequest) string {
		c, err := canonicalizeSweep(r)
		if err != nil {
			t.Fatalf("canonicalize %+v: %v", r, err)
		}
		return c.key()
	}
	if k(SweepRequest{Arbs: []string{"rr"}}) == k(SweepRequest{}) {
		t.Fatal("arb axis not part of the content address")
	}
	if k(SweepRequest{Arbs: []string{"fixed", "rr"}}) == k(SweepRequest{Arbs: []string{"rr", "fixed"}}) {
		t.Fatal("arb axis order not part of the content address")
	}
	if _, err := canonicalizeSweep(SweepRequest{Arbs: []string{"priority"}}); err == nil {
		t.Fatal("unknown arbitration policy accepted")
	}
	if _, err := canonicalizeConfig(ConfigRequest{
		Workload: "stack-churn", Layer: 1, Org: "halfword", AddrMap: "near", Arb: "bogus",
	}); err == nil {
		t.Fatal("unknown config arbitration policy accepted")
	}
}
