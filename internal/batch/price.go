package batch

import (
	"math/bits"

	"repro/internal/ecbus"
	"repro/internal/logic"
)

// Lattice drive helpers and the per-cycle pricing pass. The drive
// helpers mirror ecbus.Bundle's dirty-on-change contract: a write only
// registers when the (width-masked) value actually changes, so the
// pricing pass touches exactly the lanes the serial estimators would
// have seen dirty.

// setPacked drives a single-bit wire of one lane.
func (e *Engine) setPacked(id ecbus.SignalID, li int, v bool) {
	bit := uint64(1) << uint(li)
	if v {
		e.packed[id] |= bit
	} else {
		e.packed[id] &^= bit
	}
}

// setVal drives a multi-bit wire of one lane, masking to the signal
// width and recording the lane in the signal's changed-lane mask.
func (e *Engine) setVal(id ecbus.SignalID, li int, v uint64) {
	v &= e.mask[id]
	if e.val[id][li] != v {
		e.val[id][li] = v
		e.chMask[id] |= uint64(1) << uint(li)
	}
}

// priceCycle0 is the batched gate-level observation (gatepower.Observe
// across all lanes): each signal's transitions price in ascending
// signal order; clock and leakage need no per-cycle work, since harvest
// reads them at the lane's final cycle count. Packed
// wires price from one XOR per lane word; multi-bit wires price only
// changed lanes, with the serial path's exact float expressions, into
// per-lane per-signal accumulators — so every lane replays its serial
// run's float additions in the serial order.
func (e *Engine) priceCycle0() {
	act := e.active
	// The two representations price from separate lists (ascending
	// within each): every signal's energy lands in its own per-lane
	// accumulator, so splitting the walk leaves each accumulator's
	// addition sequence — the bit-exactness contract — untouched.
	for _, id := range e.packedIDs {
		oldW, newW := e.packedOld[id], e.packed[id]
		ch := logic.LaneChanged(oldW, newW, act)
		if ch == 0 {
			continue
		}
		rises := logic.LaneRises(oldW, newW, ch)
		falls := logic.LaneFalls(oldW, newW, ch)
		// One transition per changed lane: the serial two-term sum
		// collapses to a single add of the precomputed constant.
		rj, fj := e.riseJ[id], e.fallJ[id]
		for w := rises; w != 0; w &= w - 1 {
			e.sigE[id][bits.TrailingZeros64(w)] += rj
		}
		for w := falls; w != 0; w &= w - 1 {
			e.sigE[id][bits.TrailingZeros64(w)] += fj
		}
		nr := uint64(bits.OnesCount64(rises))
		nf := uint64(bits.OnesCount64(falls))
		e.stats.Rises += nr
		e.stats.Falls += nf
		e.stats.Transitions += nr + nf
		e.packedOld[id] = newW
	}
	for _, id := range e.multiIDs {
		chm := e.chMask[id]
		if chm == 0 {
			continue
		}
		e.chMask[id] = 0
		be := e.bitE[id]
		for w := chm; w != 0; w &= w - 1 {
			li := bits.TrailingZeros64(w)
			oldV, newV := e.old[id][li], e.val[id][li]
			if oldV == newV {
				continue // written away and back within the cycle
			}
			rises := logic.RisesMasked(oldV, newV, e.mask[id])
			falls := logic.FallsMasked(oldV, newV, e.mask[id])
			energy := float64(rises)*be*e.kRise + float64(falls)*be*e.kFall
			if e.sigBits[id] > 1 {
				opp := logic.CoupledOppositeMasked(oldV, newV, e.mask[id])
				same := logic.CoupledSameMasked(oldV, newV, e.mask[id])
				energy += (float64(opp) - 0.5*float64(same)) * e.coupleK * be
			}
			e.sigE[id][li] += energy
			if id == ecbus.SigA {
				// Decoder glitching: the combinational decoder wires
				// toggle whenever the address inputs change. A changed
				// lane always has ham > 0; an unchanged (away-and-back)
				// lane would have ham 0 and add nothing.
				ham := logic.HammingMasked(oldV, newV, e.mask[id])
				e.decE[li] += float64(ham) * e.glitchK * e.decJ
			}
			e.old[id][li] = newV
			e.stats.Rises += uint64(rises)
			e.stats.Falls += uint64(falls)
			e.stats.Transitions += uint64(rises) + uint64(falls)
		}
	}
}

// priceCycle1 is the batched layer-1 energy calculation
// (tlm1.PowerModel.calcEnergy across all lanes): each lane's per-cycle
// sum accumulates its changed interface signals in ascending signal
// order, then folds into the lane total — the serial model's
// `total += e` with e summed in exactly that order. Lanes with no
// contribution skip the fold: adding +0.0 to the non-negative total is
// a bitwise no-op.
func (e *Engine) priceCycle1() {
	var touched uint64
	for id := ecbus.SignalID(0); id < ecbus.SigSel; id++ {
		if e.isPacked[id] {
			oldW, newW := e.packedOld[id], e.packed[id]
			ch := logic.LaneChanged(oldW, newW, e.active)
			if ch == 0 {
				continue
			}
			pj := e.perTransJ[id]
			for w := ch; w != 0; w &= w - 1 {
				e.eCycle[bits.TrailingZeros64(w)] += pj
			}
			touched |= ch
			e.stats.Transitions += uint64(bits.OnesCount64(ch))
			e.packedOld[id] = newW
			continue
		}
		chm := e.chMask[id]
		if chm == 0 {
			continue
		}
		e.chMask[id] = 0
		pj := e.perTransJ[id]
		for w := chm; w != 0; w &= w - 1 {
			li := bits.TrailingZeros64(w)
			oldV, newV := e.old[id][li], e.val[id][li]
			if oldV == newV {
				continue // written away and back within the cycle
			}
			n := logic.HammingMasked(oldV, newV, e.mask[id])
			e.eCycle[li] += float64(n) * pj
			e.old[id][li] = newV
			touched |= uint64(1) << uint(li)
			e.stats.Transitions += uint64(n)
		}
	}
	for w := touched; w != 0; w &= w - 1 {
		li := bits.TrailingZeros64(w)
		e.totalE[li] += e.eCycle[li]
		e.eCycle[li] = 0
	}
}
