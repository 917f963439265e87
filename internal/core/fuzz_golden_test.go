package core_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/fault"
)

// fuzzMaxTx bounds a generated script, so one input runs in
// milliseconds even when every write lands in NVM.
const fuzzMaxTx = 48

// fuzzScript decodes a fuzz input into a transaction script and the map
// it runs on. Byte 0 picks the organization (bit 0: SRAM or NVM) and
// the fault plan (the rest, modulo fault.Names). Every four bytes after
// it are one transaction — op, two offset bytes and a gap:
//
//	op bits 0-1  kind (read, write, fetch; 3 wraps to read)
//	op bits 2-3  region (fast, slow, slow, unmapped)
//	op bit  5    burst
//	op bits 6-7  width of a single (8, 16, 32, 32 bits)
//	gap bits 0-4 cycles added to NotBefore before this transaction
//
// Requests that the constructors refuse are dropped.
func fuzzScript(data []byte) ([]core.Item, func() *ecbus.Map) {
	if len(data) == 0 {
		return nil, nil
	}
	plan, _ := fault.Named(fault.Names[int(data[0]>>1)%len(fault.Names)])
	mp := func() *ecbus.Map { return faultMap(plan) }
	if data[0]&1 != 0 {
		mp = func() *ecbus.Map { return nvmFaultMap(plan) }
	}
	var items []core.Item
	var when uint64
	for i := 1; i+4 <= len(data) && len(items) < fuzzMaxTx; i += 4 {
		op, hi, lo, gap := data[i], data[i+1], data[i+2], data[i+3]
		when += uint64(gap & 0x1F)
		kind := []ecbus.Kind{ecbus.Read, ecbus.Write, ecbus.Fetch, ecbus.Read}[op&3]
		addr := []uint64{lay.Fast, lay.Slow, lay.Slow, 0x8000}[op>>2&3] + (uint64(hi)<<8|uint64(lo))%0xF00
		word := uint32(hi)<<24 | uint32(lo)<<16 | uint32(gap)<<8 | uint32(op)
		id := uint64(len(items) + 1)
		var tr *ecbus.Transaction
		var err error
		if op&0x20 != 0 {
			var payload []uint32
			if kind == ecbus.Write {
				payload = []uint32{word, ^word, word << 3, word >> 5}
			}
			tr, err = ecbus.NewBurst(id, kind, addr&^15, payload)
		} else {
			w := []ecbus.Width{ecbus.W8, ecbus.W16, ecbus.W32, ecbus.W32}[op>>6]
			if kind == ecbus.Fetch {
				w = ecbus.W32
			}
			tr, err = ecbus.NewSingle(id, kind, addr&^(uint64(w)-1), w, word)
		}
		if err != nil {
			continue
		}
		items = append(items, core.Item{Tr: tr, NotBefore: when})
	}
	return items, mp
}

// FuzzGoldenEquivalence is the golden gate over generated scripts: each
// runs on the reference and the optimized path at L0, TL1 and TL2 with
// the fault tables' retry policy, plain and metered, and per-transaction
// timing, energy bits, bus ledger counts (rejections included) and registry
// counts must be identical.
func FuzzGoldenEquivalence(f *testing.F) {
	char := characterize(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		items, mp := fuzzScript(data)
		if len(items) == 0 {
			return
		}
		for layer := 0; layer <= 2; layer++ {
			checkGolden(t, layer, items, char, mp, bench.FaultRetry)
		}
	})
}
