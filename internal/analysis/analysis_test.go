package analysis

import (
	"testing"

	"repro/internal/crypto"
)

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean = %g", m)
	}
	if Mean(nil) != 0 {
		t.Fatal("empty input not zero")
	}
}

func TestAutocorrPeriodicSignal(t *testing.T) {
	// Period-2 signal: strong correlation at lag 2, anti at lag 1.
	var tr []float64
	for i := 0; i < 64; i++ {
		tr = append(tr, float64(i%2))
	}
	if a := Autocorr(tr, 2); a < 0.9 {
		t.Fatalf("autocorr lag 2 = %g", a)
	}
	if a := Autocorr(tr, 1); a > -0.5 {
		t.Fatalf("autocorr lag 1 = %g", a)
	}
	if Autocorr(tr, 0) != 0 || Autocorr(tr, 100) != 0 {
		t.Fatal("degenerate lags not zero")
	}
}

func TestSPASeesRoundStructure(t *testing.T) {
	// A single coprocessor trace autocorrelates at the round period far
	// better than at an incommensurate lag — the SPA observation.
	leak := crypto.DefaultLeak()
	leak.NoiseJ = 1e-12 // SPA regime: low noise, single trace
	traces, _ := CollectTraces(1, 0x0123456789ABCDEF, leak, 99)
	tr := traces[0]
	// The engine holds each round register for CyclesPerRound cycles, so
	// the trace shows plateaus of that length: strong correlation within
	// a round (lag 1) and essentially none across round boundaries
	// (lag CyclesPerRound) — the structure an SPA attacker reads off.
	within := Autocorr(tr, crypto.CyclesPerRound-1)
	across := Autocorr(tr, crypto.CyclesPerRound)
	if within < 0.25 {
		t.Fatalf("within-round autocorrelation %g too weak for SPA", within)
	}
	if within <= across {
		t.Fatalf("no round boundary visible: within %g <= across %g", within, across)
	}
}

func TestPredictBitMatchesEngine(t *testing.T) {
	// The selection function must agree with the actual round-1 register
	// bit of the cipher.
	key := uint64(0x0123456789ABCDEF)
	k1 := crypto.Subkey(key, 0)
	pts := []uint64{0, 0xFFFFFFFFFFFFFFFF, 0xA5A5A5A55A5A5A5A, 0x0011223344556677}
	for _, pt := range pts {
		l0, r0 := uint32(pt>>32), uint32(pt)
		r1 := l0 ^ crypto.F(r0, k1)
		for n := 0; n < 8; n++ {
			pos := (4*uint(n) + 11) % 32
			want := int(r1 >> pos & 1)
			got := PredictBit(pt, k1>>(4*uint(n))&0xF, n)
			if got != want {
				t.Fatalf("pt %#x nibble %d: predict %d, engine %d", pt, n, got, want)
			}
		}
	}
}

func TestDPARecoversRound1Subkey(t *testing.T) {
	key := uint64(0x0123456789ABCDEF)
	traces, pts := CollectTraces(2000, key, crypto.DefaultLeak(), 7)
	recovered, results := RecoverSubkey(traces, pts, []int{0, 1})
	want := crypto.Subkey(key, 0)
	if recovered != want {
		for _, r := range results {
			t.Log(r.String())
		}
		t.Fatalf("recovered %#x, want %#x", recovered, want)
	}
	for _, r := range results {
		if r.Margin() < 1.02 {
			t.Errorf("nibble %d margin %.2f too thin", r.Nibble, r.Margin())
		}
	}
}

func TestDPAFailsWithFewTraces(t *testing.T) {
	// With a handful of traces the noise dominates: at least one nibble
	// should come out wrong — the reason attackers need volume and
	// defenders fight trace alignment.
	key := uint64(0x0123456789ABCDEF)
	traces, pts := CollectTraces(4, key, crypto.DefaultLeak(), 11)
	recovered, _ := RecoverSubkey(traces, pts, []int{0, 1})
	if recovered == crypto.Subkey(key, 0) {
		t.Skip("4 traces happened to suffice for this seed; acceptable but rare")
	}
}

func TestMisalignmentCountermeasureWeakensDPA(t *testing.T) {
	key := uint64(0x0123456789ABCDEF)
	traces, pts := CollectTraces(400, key, crypto.DefaultLeak(), 7)

	aligned := DPA(traces, pts, 0, []int{0, 1})
	blurred := DPA(Misalign(traces, 8, 1234), pts, 0, []int{0, 1})

	if blurred.Peak >= aligned.Peak*0.7 {
		t.Fatalf("misalignment did not weaken DPA: %.3g -> %.3g", aligned.Peak, blurred.Peak)
	}
}

func TestMisalignPreservesShape(t *testing.T) {
	traces := [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}}
	out := Misalign(traces, 2, 42)
	if len(out) != 2 || len(out[0]) != 4 {
		t.Fatal("shape changed")
	}
	// Originals untouched.
	if traces[0][0] != 1 {
		t.Fatal("input mutated")
	}
}

func TestDPAPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	DPA([][]float64{{1}}, nil, 0, []int{0})
}
