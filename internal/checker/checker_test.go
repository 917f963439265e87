package checker

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/rtlbus"
	"repro/internal/sim"
)

var lay = core.Layout{Fast: 0, Slow: 0x10000}

func busMap() *ecbus.Map { return faultMap(fault.Plan{}) }

func faultMap(plan fault.Plan) *ecbus.Map {
	return ecbus.MustMap(
		fault.Wrap(mem.NewRAM("fast", lay.Fast, 0x1000, 0, 0), plan),
		fault.Wrap(mem.NewRAM("slow", lay.Slow, 0x1000, 1, 2), plan),
	)
}

// TestLayer0IsProtocolClean: the layer-0 model must satisfy every
// invariant on all corpora, under every named fault plan, with and
// without master retries — bus errors, wait storms, stretched busy
// windows and re-issued transactions included.
func TestLayer0IsProtocolClean(t *testing.T) {
	corpora := map[string][]core.Item{
		"verification": core.VerificationCorpus(lay),
		"perf":         core.PerfCorpus(lay, 300),
	}
	for seed := uint64(1); seed <= 10; seed++ {
		corpora[fmt.Sprintf("random%d", seed)] = core.RandomCorpus(seed, 300, lay)
	}
	retries := map[string]core.RetryPolicy{
		"no-retry": {},
		"retry":    {MaxRetries: 3, Backoff: 2},
	}
	clean := -1 // errored attempts under the empty plan (decode misses)
	for _, planName := range fault.Names {
		plan, _ := fault.Named(planName)
		faulted := 0 // errored attempts: final errors plus retries
		for rname, retry := range retries {
			for name, items := range corpora {
				tag := fmt.Sprintf("%s/%s/%s", name, planName, rname)
				k := sim.New(0)
				b := rtlbus.New(k, faultMap(plan))
				c := New()
				k.At(sim.Post, "chk", func(uint64) { c.Observe(b.Wires()) })
				m := core.NewScriptMaster(k, b, core.CloneItems(items))
				m.Retry = retry
				k.RunUntil(1_000_000, m.Done)
				if !m.Done() {
					t.Fatalf("%s: hung", tag)
				}
				if !c.Clean() {
					for _, v := range c.Violations() {
						t.Log(v)
					}
					t.Fatalf("%s: %d protocol violations", tag, len(c.Violations()))
				}
				faulted += m.Errors() + m.TotalRetries()
			}
		}
		switch {
		case plan.Empty():
			clean = faulted
		case plan.ReadErrPermille > 0 && faulted <= clean:
			t.Errorf("%s: %d errored attempts, %d without faults; the plan injected nothing", planName, faulted, clean)
		}
	}
}

func TestLayer0CleanOnErrors(t *testing.T) {
	k := sim.New(0)
	b := rtlbus.New(k, busMap())
	c := New()
	k.At(sim.Post, "chk", func(uint64) { c.Observe(b.Wires()) })
	miss, _ := ecbus.NewSingle(1, ecbus.Read, 0x5000, ecbus.W32, 0)
	wr, _ := ecbus.NewSingle(2, ecbus.Write, 0x5000, ecbus.W32, 1)
	ok, _ := ecbus.NewSingle(3, ecbus.Read, lay.Fast, ecbus.W32, 0)
	m, _ := core.RunScript(k, b, []core.Item{{Tr: miss}, {Tr: wr}, {Tr: ok}}, 10000)
	if !m.Done() || m.Errors() != 2 {
		t.Fatal("error scenario wrong")
	}
	if !c.Clean() {
		t.Fatalf("violations on error path: %v", c.Violations())
	}
}

// Synthetic violation streams prove each rule actually fires.
func feed(bundles []ecbus.Bundle) *Checker {
	c := New()
	for i := range bundles {
		c.Observe(&bundles[i])
	}
	return c
}

func mkBundle(set func(b *ecbus.Bundle)) ecbus.Bundle {
	var b ecbus.Bundle
	set(&b)
	return b
}

func hasRule(c *Checker, rule string) bool {
	for _, v := range c.Violations() {
		if v.Rule == rule {
			return true
		}
	}
	return false
}

func TestRuleA1ARdyWithoutAValid(t *testing.T) {
	c := feed([]ecbus.Bundle{
		mkBundle(func(b *ecbus.Bundle) { b.SetBool(ecbus.SigARdy, true) }),
	})
	if !hasRule(c, "A1") {
		t.Fatalf("A1 not flagged: %v", c.Violations())
	}
}

func TestRuleA2MidPhaseAddressChange(t *testing.T) {
	c := feed([]ecbus.Bundle{
		mkBundle(func(b *ecbus.Bundle) { b.SetBool(ecbus.SigAValid, true); b.Set(ecbus.SigA, 0x100) }),
		mkBundle(func(b *ecbus.Bundle) { b.SetBool(ecbus.SigAValid, true); b.Set(ecbus.SigA, 0x200) }),
	})
	if !hasRule(c, "A2") {
		t.Fatalf("A2 not flagged: %v", c.Violations())
	}
}

func TestRuleA2AllowsNewPhaseAfterAccept(t *testing.T) {
	c := feed([]ecbus.Bundle{
		mkBundle(func(b *ecbus.Bundle) {
			b.SetBool(ecbus.SigAValid, true)
			b.SetBool(ecbus.SigARdy, true)
			b.Set(ecbus.SigA, 0x100)
		}),
		mkBundle(func(b *ecbus.Bundle) { b.SetBool(ecbus.SigAValid, true); b.Set(ecbus.SigA, 0x200) }),
	})
	if !c.Clean() {
		t.Fatalf("back-to-back phases flagged: %v", c.Violations())
	}
}

func TestRuleA3DroppedRequest(t *testing.T) {
	c := feed([]ecbus.Bundle{
		mkBundle(func(b *ecbus.Bundle) { b.SetBool(ecbus.SigAValid, true); b.Set(ecbus.SigA, 0x100) }),
		mkBundle(func(b *ecbus.Bundle) {}),
	})
	if !hasRule(c, "A3") {
		t.Fatalf("A3 not flagged: %v", c.Violations())
	}
}

func TestRuleD1D2StrobeExclusivity(t *testing.T) {
	c := feed([]ecbus.Bundle{
		mkBundle(func(b *ecbus.Bundle) { b.SetBool(ecbus.SigRdVal, true); b.SetBool(ecbus.SigRBErr, true) }),
		mkBundle(func(b *ecbus.Bundle) { b.SetBool(ecbus.SigWDRdy, true); b.SetBool(ecbus.SigWBErr, true) }),
	})
	if !hasRule(c, "D1") || !hasRule(c, "D2") {
		t.Fatalf("D1/D2 not flagged: %v", c.Violations())
	}
}

func TestRuleB1BFirstWithoutBurst(t *testing.T) {
	c := feed([]ecbus.Bundle{
		mkBundle(func(b *ecbus.Bundle) {
			b.SetBool(ecbus.SigAValid, true)
			b.SetBool(ecbus.SigBFirst, true)
		}),
	})
	if !hasRule(c, "B1") {
		t.Fatalf("B1 not flagged: %v", c.Violations())
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Cycle: 7, Rule: "A1", Info: "x"}
	if v.String() == "" {
		t.Fatal("empty violation string")
	}
}

// accept returns a bundle carrying an accepted address phase.
func accept(addr uint64, write, burst bool) ecbus.Bundle {
	return mkBundle(func(b *ecbus.Bundle) {
		b.SetBool(ecbus.SigAValid, true)
		b.SetBool(ecbus.SigARdy, true)
		b.Set(ecbus.SigA, addr)
		if write {
			b.Set(ecbus.SigWrite, 1)
		}
		if burst {
			b.Set(ecbus.SigBurst, 1)
		}
	})
}

func TestRuleE1ErrorWithNothingOutstanding(t *testing.T) {
	c := feed([]ecbus.Bundle{
		mkBundle(func(b *ecbus.Bundle) { b.SetBool(ecbus.SigRBErr, true) }),
	})
	if !hasRule(c, "E1") {
		t.Fatalf("E1 not flagged for bare RBErr: %v", c.Violations())
	}
	c = feed([]ecbus.Bundle{
		mkBundle(func(b *ecbus.Bundle) { b.SetBool(ecbus.SigWBErr, true) }),
	})
	if !hasRule(c, "E1") {
		t.Fatalf("E1 not flagged for bare WBErr: %v", c.Violations())
	}
}

func TestRuleE1ErrorWrongDirection(t *testing.T) {
	// Only a write is outstanding; a read error strobe has no matching
	// request (and the acceptance is of the other direction, so it is
	// not an address-phase abort either).
	c := feed([]ecbus.Bundle{
		accept(0x100, true, false),
		mkBundle(func(b *ecbus.Bundle) { b.SetBool(ecbus.SigRBErr, true) }),
	})
	if !hasRule(c, "E1") {
		t.Fatalf("E1 not flagged for wrong-direction error: %v", c.Violations())
	}
}

func TestE1AllowsAddressPhaseAbort(t *testing.T) {
	// Decode error: acceptance and error strobe on the same cycle. Legal,
	// and the aborted request never becomes outstanding.
	c := feed([]ecbus.Bundle{
		mkBundle(func(b *ecbus.Bundle) {
			b.SetBool(ecbus.SigAValid, true)
			b.SetBool(ecbus.SigARdy, true)
			b.Set(ecbus.SigA, 0x100)
			b.SetBool(ecbus.SigRBErr, true)
		}),
	})
	if !c.Clean() {
		t.Fatalf("address-phase abort flagged: %v", c.Violations())
	}
	if r, w := c.Outstanding(); r != 0 || w != 0 {
		t.Fatalf("aborted acceptance left outstanding state: %d/%d", r, w)
	}
}

func TestE1AllowsDataPhaseError(t *testing.T) {
	c := feed([]ecbus.Bundle{
		accept(0x100, false, false),
		mkBundle(func(b *ecbus.Bundle) { b.SetBool(ecbus.SigRBErr, true) }),
	})
	if !c.Clean() {
		t.Fatalf("legal data-phase error flagged: %v", c.Violations())
	}
	if r, _ := c.Outstanding(); r != 0 {
		t.Fatalf("errored transaction not retired: %d outstanding", r)
	}
}

func TestRuleD3BeatWithNothingOutstanding(t *testing.T) {
	c := feed([]ecbus.Bundle{
		mkBundle(func(b *ecbus.Bundle) { b.SetBool(ecbus.SigRdVal, true) }),
	})
	if !hasRule(c, "D3") {
		t.Fatalf("D3 not flagged for orphan read beat: %v", c.Violations())
	}
	c = feed([]ecbus.Bundle{
		mkBundle(func(b *ecbus.Bundle) { b.SetBool(ecbus.SigWDRdy, true) }),
	})
	if !hasRule(c, "D3") {
		t.Fatalf("D3 not flagged for orphan write beat: %v", c.Violations())
	}
}

func TestRuleD3BurstOverdelivery(t *testing.T) {
	beats := make([]ecbus.Bundle, 0, ecbus.BurstLen+2)
	beats = append(beats, accept(0x100, false, true))
	for i := 0; i <= ecbus.BurstLen; i++ {
		beats = append(beats, mkBundle(func(b *ecbus.Bundle) { b.SetBool(ecbus.SigRdVal, true) }))
	}
	c := feed(beats)
	if !hasRule(c, "D3") {
		t.Fatalf("D3 not flagged for beat %d of a %d-beat burst: %v",
			ecbus.BurstLen+1, ecbus.BurstLen, c.Violations())
	}
}

func TestRuleO1OccupancyLimit(t *testing.T) {
	var bundles []ecbus.Bundle
	for i := 0; i <= ecbus.MaxOutstanding; i++ {
		bundles = append(bundles, accept(uint64(0x100+16*i), false, false))
	}
	c := feed(bundles)
	if !hasRule(c, "O1") {
		t.Fatalf("O1 not flagged at occupancy %d: %v", ecbus.MaxOutstanding+1, c.Violations())
	}
	// Staying at the limit is legal.
	bundles = bundles[:ecbus.MaxOutstanding]
	if c := feed(bundles); !c.Clean() {
		t.Fatalf("occupancy at the limit flagged: %v", c.Violations())
	}
}
