package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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
		key, err := SweepKey(req)
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
			ck, err := ConfigKey(c)
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

	const want = "2009ca349101a7ff73447d9d4825a803b667c7731cee4d646f93df91602fedde"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("axis key digest %s, want %s", got, want)
	}
}
