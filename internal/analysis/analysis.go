// Package analysis implements the power-analysis side of the paper's
// motivation: "The second reason for power considerations in smart cards
// is power analysis like simple power analysis (SPA), or differential
// power analysis (DPA). If smart cards are not protected against these
// attacks, it is possible to find out crypto keys by using such
// methods."
//
// It provides trace statistics, SPA structure detection (round
// periodicity via autocorrelation), a textbook difference-of-means DPA
// attack against the crypto coprocessor's round-1 subkey, and the
// misalignment countermeasure (random process interrupts) whose effect
// on the DPA peak the examples evaluate.
package analysis

import (
	"fmt"
	"math"

	"repro/internal/crypto"
	"repro/internal/logic"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Autocorr returns the normalized autocorrelation of the trace at the
// given lag — SPA's structure detector: a periodic round pattern gives a
// high value at lag = cycles-per-round.
func Autocorr(trace []float64, lag int) float64 {
	if lag <= 0 || lag >= len(trace) {
		return 0
	}
	m := Mean(trace)
	var num, den float64
	for i := 0; i < len(trace); i++ {
		den += (trace[i] - m) * (trace[i] - m)
	}
	if den == 0 {
		return 0
	}
	for i := 0; i+lag < len(trace); i++ {
		num += (trace[i] - m) * (trace[i+lag] - m)
	}
	return num / den
}

// PredictBit is the DPA selection function: the predicted value of one
// bit of the coprocessor's round-1 register given the plaintext and a
// guess of S-box input key nibble `nibble` of the round-1 subkey.
//
// Round 1 computes r1 = l0 ^ rot11(S(r0 ^ k1)); nibble n of the S-box
// layer lands at bit (4n+11) mod 32 after the rotate, XORed with the
// corresponding known plaintext bit of l0.
func PredictBit(plaintext uint64, guess uint32, nibble int) int {
	l0 := uint32(plaintext >> 32)
	r0 := uint32(plaintext)
	x := (r0 >> (4 * uint(nibble)) & 0xF) ^ (guess & 0xF)
	y := crypto.Sbox(x) & 1
	pos := (4*uint(nibble) + 11) % 32
	return int(y ^ (l0 >> pos & 1))
}

// DPAResult reports one nibble attack.
type DPAResult struct {
	Nibble    int
	BestGuess uint32
	Peak      float64 // difference of means of the winning guess
	Runner    float64 // best wrong-guess peak (margin indicator)
	Traces    int
}

// Margin returns the ratio between the winning and runner-up peaks.
func (r DPAResult) Margin() float64 {
	if r.Runner == 0 {
		return math.Inf(1)
	}
	return r.Peak / r.Runner
}

// String formats the result.
func (r DPAResult) String() string {
	return fmt.Sprintf("nibble %d: guess %#x (peak %.3g, margin %.2fx, %d traces)",
		r.Nibble, r.BestGuess, r.Peak, r.Margin(), r.Traces)
}

// DPA mounts the difference-of-means attack on one subkey nibble, using
// the given per-operation traces (each crypto.Rounds*CyclesPerRound
// samples) and their known plaintexts. samples selects the trace indices
// carrying round-1 leakage (the engine leaks the round register during
// both cycles of round 1: indices 0 and 1).
func DPA(traces [][]float64, plaintexts []uint64, nibble int, samples []int) DPAResult {
	if len(traces) != len(plaintexts) {
		panic("analysis: traces and plaintexts length mismatch")
	}
	res := DPAResult{Nibble: nibble, Traces: len(traces)}
	for guess := uint32(0); guess < 16; guess++ {
		var ones, zeros []float64
		for i, tr := range traces {
			var v float64
			for _, s := range samples {
				if s < len(tr) {
					v += tr[s]
				}
			}
			if PredictBit(plaintexts[i], guess, nibble) == 1 {
				ones = append(ones, v)
			} else {
				zeros = append(zeros, v)
			}
		}
		dom := math.Abs(Mean(ones) - Mean(zeros))
		if dom > res.Peak {
			res.Runner = res.Peak
			res.Peak = dom
			res.BestGuess = guess
		} else if dom > res.Runner {
			res.Runner = dom
		}
	}
	return res
}

// RecoverSubkey attacks all eight nibbles and assembles the recovered
// 32-bit round-1 subkey.
func RecoverSubkey(traces [][]float64, plaintexts []uint64, samples []int) (uint32, []DPAResult) {
	var key uint32
	results := make([]DPAResult, 8)
	for n := 0; n < 8; n++ {
		r := DPA(traces, plaintexts, n, samples)
		results[n] = r
		key |= r.BestGuess << (4 * uint(n))
	}
	return key, results
}

// Misalign applies the random-process-interrupt countermeasure to a
// trace set: each trace is shifted by a pseudo-random 0..maxShift cycles
// (pre-padded with the trace's own mean), destroying the sample
// alignment DPA depends on.
func Misalign(traces [][]float64, maxShift int, seed uint64) [][]float64 {
	r := logic.NewLFSR(seed)
	out := make([][]float64, len(traces))
	for i, tr := range traces {
		shift := r.NextRange(maxShift + 1)
		m := Mean(tr)
		nt := make([]float64, len(tr))
		for j := range nt {
			if j < shift {
				nt[j] = m
			} else {
				nt[j] = tr[j-shift]
			}
		}
		out[i] = nt
	}
	return out
}
