package explore

import (
	"repro/internal/crypto"
	"repro/internal/dma"
	"repro/internal/ecbus"
	"repro/internal/mem"
)

// The contended system's extra slaves: the APDU command buffer (fast
// RAM) and the EEPROM-backed data store the platform copies command
// payloads into. Both sit far above every stack SFR base so no address
// map collides with them.
const (
	ApduBase = 0x0600_0000
	EEBase   = 0x0700_0000

	contendedBufSize = 0x1000
)

// cryptoMasterKey is the fixed key of the contended system's crypto
// bus master. The sweep measures bus traffic, not secrecy; a fixed key
// keeps every run deterministic.
const cryptoMasterKey = 0x0123_4567_89AB_CDEF

// contendedDescriptors is the DMA engine's fixed programme: the APDU
// payload moved into the EEPROM store — one burst-aligned block and one
// deliberately misaligned tail that exercises the word-by-word path.
func contendedDescriptors() []dma.Descriptor {
	return []dma.Descriptor{
		{Src: ApduBase + 0x000, Dst: EEBase + 0x000, Words: 16},
		{Src: ApduBase + 0x100, Dst: EEBase + 0x104, Words: 8},
	}
}

// contendedJobs is the crypto master's fixed programme: two 64-bit
// blocks of the APDU buffer encrypted into the EEPROM store.
func contendedJobs() []crypto.Job {
	return []crypto.Job{{Src: ApduBase + 0x200, Dst: EEBase + 0x200, Blocks: 2}}
}

// fillApdu preloads the APDU buffer with the deterministic payload the
// DMA and crypto masters consume.
func fillApdu(r *mem.RAM) {
	for i := 0; i < contendedBufSize/4; i++ {
		r.WriteWord(ApduBase+uint64(4*i), 0xC0DE_0000|uint32(i*2654435761), ecbus.W32)
	}
}

// Mux port assignment of the contended system. The CPU keeps the
// highest fixed priority (its stalls serialize the interpreter), the
// DMA engine the lowest (its transfers are the most latency-tolerant).
const (
	portCPU = iota
	portCrypto
	portDMA
	contendedMasters
)
