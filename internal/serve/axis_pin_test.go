package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/javacard"
	"repro/internal/journal"
	"repro/internal/tear"
)

// axisPinRequests covers every value of every sweep-axis vocabulary:
// one request per value with the other axes at their defaults, plus
// the tear × journal × layer and arbitration combinations a sweep may
// legally carry.
func axisPinRequests() []SweepRequest {
	var reqs []SweepRequest
	for _, l := range explore.SweepLayers {
		reqs = append(reqs, SweepRequest{Layers: []int{l}})
	}
	reqs = append(reqs, SweepRequest{Layers: []int{3, 1, 2}})
	for _, o := range javacard.Organizations {
		reqs = append(reqs, SweepRequest{Orgs: []string{o.String()}})
	}
	for _, m := range explore.AllAddrMaps {
		reqs = append(reqs, SweepRequest{AddrMaps: []string{m}})
	}
	for _, w := range javacard.Workloads() {
		reqs = append(reqs, SweepRequest{Workloads: []string{w.Name}})
	}
	for _, f := range fault.Names {
		reqs = append(reqs, SweepRequest{Faults: []string{f}})
	}
	for _, a := range append([]string{"none"}, explore.ArbPolicies...) {
		for _, l := range explore.SweepLayers {
			reqs = append(reqs, SweepRequest{Layers: []int{l}, Arbs: []string{a}})
		}
	}
	for _, t := range tear.Names {
		for _, j := range journal.Names {
			reqs = append(reqs, SweepRequest{Tears: []string{t}, Journals: []string{j}})
			reqs = append(reqs, SweepRequest{Layers: []int{2}, Arbs: []string{"none"}, Tears: []string{t}, Journals: []string{j}})
		}
	}
	for _, f := range explore.Fidelities {
		reqs = append(reqs, SweepRequest{Fidelity: string(f)})
	}
	return reqs
}

// TestAxisKeysPinned pins the sweep content keys of every axis value,
// the /v1/config keys of two full expansions (every organization, map,
// workload and fault plan, across every arbitration policy and every
// tear plan × journal strategy) and two small sweep bodies to the bytes
// the serving layer produced before the axis rules moved into explore.
func TestAxisKeysPinned(t *testing.T) {
	h := sha256.New()
	for _, req := range axisPinRequests() {
		key, err := keyOf("sweep", req)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		fmt.Fprintf(h, "sweep %s\n", key)
	}
	var orgs []string
	for _, o := range javacard.Organizations {
		orgs = append(orgs, o.String())
	}
	expansions := []SweepRequest{
		{Layers: []int{1, 2, 3}, Orgs: orgs, AddrMaps: explore.AllAddrMaps, Faults: fault.Names,
			Arbs: append([]string{"none"}, explore.ArbPolicies...)},
		{Layers: []int{1, 2}, AddrMaps: []string{"near", "top"}, Faults: []string{"none", "grind"},
			Tears: tear.Names, Journals: journal.Names},
	}
	for _, req := range expansions {
		key, cfgs, err := ExpandSweep(req)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "expand %s %d\n", key, len(cfgs))
		for _, c := range cfgs {
			ck, err := keyOf("config", c)
			if err != nil {
				t.Fatalf("%+v: %v", c, err)
			}
			fmt.Fprintf(h, "%+v %s\n", c, ck)
		}
	}

	_, hs, _ := newTestServer(t, Options{Workers: 2})
	bodies := []SweepRequest{
		{Layers: []int{1, 2, 3}, Orgs: []string{"halfword"}, AddrMaps: []string{"near"},
			Workloads: []string{"stack-churn"}, Faults: []string{"none", "storm"}, Arbs: []string{"none", "rr"}},
		{Layers: []int{1}, Orgs: []string{"halfword"}, AddrMaps: []string{"near"},
			Workloads: []string{"stack-churn"}, Tears: []string{"none", "tear-mid"}, Journals: []string{"none", "word-eager"}},
	}
	for _, req := range bodies {
		resp := postJSON(t, hs.URL+"/v1/sweep", req)
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK || bytes.Contains(body, []byte(`"errors"`)) {
			t.Fatalf("%+v: status %d: %s", req, resp.StatusCode, body)
		}
		fmt.Fprintf(h, "body %s", body)
	}

	const want = "ba4ce8519ced9e1e207a67d90486ff10e58f886e4d8acd4b6aa8850824399625"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("axis key digest %s, want %s", got, want)
	}
}

// TestAxisElementsResolveAlone: every axis element of a sweep list and
// every single-valued /v1/config axis field resolves on its own, by one
// rule. "" is the off value — kept in a list, never dropped; [""] means
// the same sweep as omitting the list; and a field accepts exactly what
// one list element accepts, so a trailing comma is refused, not split.
func TestAxisElementsResolveAlone(t *testing.T) {
	sweep := func(field string, vals ...string) SweepRequest {
		list, _ := json.Marshal(vals)
		var req SweepRequest
		if err := json.Unmarshal([]byte(`{"layers":[1],"`+field+`":`+string(list)+`}`), &req); err != nil {
			t.Fatal(err)
		}
		return req
	}
	config := func(field, val string) ConfigRequest {
		v, _ := json.Marshal(val)
		var req ConfigRequest
		body := `{"workload":"arith-loop","layer":1,"org":"halfword","addr_map":"near","` + field + `":` + string(v) + `}`
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		return req
	}
	mustKey := func(key string, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	plain := mustKey(keyOf("sweep", SweepRequest{Layers: []int{1}}))
	_, plainCfgs, err := ExpandSweep(SweepRequest{Layers: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, ax := range explore.Axes {
		list := ax.Name + "s"
		if got := mustKey(keyOf("sweep", sweep(list, ""))); got != plain {
			t.Errorf("%s [\"\"]: key %s, want the omitted-list key %s", list, got, plain)
		}
		v := ax.Vocab[len(ax.Vocab)-1]
		_, cfgs, err := ExpandSweep(sweep(list, "", v))
		if err != nil {
			t.Fatalf("%s [\"\", %q]: %v", list, v, err)
		}
		if len(cfgs) != 2*len(plainCfgs) {
			t.Errorf("%s [\"\", %q]: %d configs, want %d (the off value dropped?)", list, v, len(cfgs), 2*len(plainCfgs))
		}
		for _, bad := range []string{v + ",", "," + v, "none," + v} {
			if _, err := keyOf("sweep", sweep(list, bad)); err == nil {
				t.Errorf("%s [%q] accepted", list, bad)
			}
			if _, err := keyOf("config", config(ax.Name, bad)); err == nil {
				t.Errorf("config %s %q accepted", ax.Name, bad)
			}
		}
		if got, want := mustKey(keyOf("config", config(ax.Name, " "+v))), mustKey(keyOf("config", config(ax.Name, v))); got != want {
			t.Errorf("config %s %q: key %s, want %q's key %s", ax.Name, " "+v, got, v, want)
		}
		if got, want := mustKey(keyOf("sweep", sweep(list, " "+v))), mustKey(keyOf("sweep", sweep(list, v))); got != want {
			t.Errorf("%s [%q]: key %s, want [%q]'s key %s", list, " "+v, got, v, want)
		}
	}
	// The arbitration case as first reported: both cells run.
	_, cfgs, err := ExpandSweep(SweepRequest{Layers: []int{1}, Arbs: []string{"", "rr"}})
	if err != nil {
		t.Fatal(err)
	}
	arbs := map[string]int{}
	for _, c := range cfgs {
		arbs[c.Arb]++
	}
	if len(cfgs) != 48 || arbs[""] != 24 || arbs["rr"] != 24 {
		t.Fatalf("arbs [\"\", rr]: %d configs, per policy %v; want 24 each", len(cfgs), arbs)
	}
}
