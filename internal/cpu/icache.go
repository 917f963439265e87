package cpu

// ICache is a direct-mapped instruction cache with 4-word (16-byte)
// lines, matching the EC burst length so every refill is one burst fetch
// transaction — the structure of the paper's target core (MIPS 4Ksc
// instruction cache in front of the bus interface unit).
type ICache struct {
	lines  []icLine
	Hits   uint64
	Misses uint64
}

type icLine struct {
	valid bool
	tag   uint64
	words [4]uint32
}

// NewICache creates a direct-mapped cache with the given number of
// lines (rounded up to a power of two).
func NewICache(lines int) *ICache {
	n := 1
	for n < lines {
		n <<= 1
	}
	return &ICache{lines: make([]icLine, n)}
}

// index returns the line index and tag for an address.
func (c *ICache) index(addr uint64) (int, uint64) {
	line := addr >> 4
	return int(line % uint64(len(c.lines))), line / uint64(len(c.lines))
}

// Lookup returns the instruction word at addr on a hit.
func (c *ICache) Lookup(addr uint64) (uint32, bool) {
	i, tag := c.index(addr)
	l := &c.lines[i]
	if l.valid && l.tag == tag {
		c.Hits++
		return l.words[(addr>>2)&3], true
	}
	c.Misses++
	return 0, false
}

// Fill installs a refilled line (addr is the 16-byte-aligned line
// address, words the four fetched instruction words).
func (c *ICache) Fill(addr uint64, words []uint32) {
	i, tag := c.index(addr)
	l := &c.lines[i]
	l.valid = true
	l.tag = tag
	copy(l.words[:], words)
}
