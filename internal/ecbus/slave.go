package ecbus

import "fmt"

// SlaveConfig is the slave control information exposed through the slave
// control interface of the paper's layer-1 model: "the address range of
// the slave, wait states for address, read and write phases, and bits to
// indicate the access rights like read, write, and execute".
type SlaveConfig struct {
	Name string
	Base uint64 // first byte address, AddrBits wide
	Size uint64 // size in bytes

	AddrWait  int // wait states before the address phase completes
	ReadWait  int // wait states before each read data word
	WriteWait int // wait states before each write data word

	Readable   bool
	Writable   bool
	Executable bool
}

// Contains reports whether the address falls inside the slave's range.
// Like Allows, it takes a pointer: address decode calls both on every
// access, and a value receiver copies the whole config each call.
func (c *SlaveConfig) Contains(addr uint64) bool {
	return addr >= c.Base && addr < c.Base+c.Size
}

// End returns one past the last byte address of the range.
func (c SlaveConfig) End() uint64 { return c.Base + c.Size }

// Allows reports whether the access kind is permitted by the rights bits.
func (c *SlaveConfig) Allows(k Kind) bool {
	switch k {
	case Fetch:
		return c.Executable
	case Read:
		return c.Readable
	case Write:
		return c.Writable
	default:
		return false
	}
}

// Validate checks internal consistency.
func (c SlaveConfig) Validate() error {
	if c.Size == 0 {
		return fmt.Errorf("ecbus: slave %q has zero size", c.Name)
	}
	if c.Base&^AddrMask != 0 || (c.Base+c.Size-1)&^AddrMask != 0 {
		return fmt.Errorf("ecbus: slave %q range [%#x,%#x) exceeds address space", c.Name, c.Base, c.End())
	}
	if c.AddrWait < 0 || c.ReadWait < 0 || c.WriteWait < 0 {
		return fmt.Errorf("ecbus: slave %q has negative wait states", c.Name)
	}
	return nil
}

// Slave is the functional behaviour of a bus slave, shared by every
// abstraction level: the layer models wrap it with the appropriate
// timing (wait states from Config) and signalling.
//
// ReadWord/WriteWord operate on one bus word; addr selects the word and,
// together with width, the active byte lanes. Implementations return
// false to signal a slave-side bus error (beyond decode/rights errors,
// which the bus controller raises itself).
type Slave interface {
	Config() SlaveConfig
	ReadWord(addr uint64, w Width) (uint32, bool)
	WriteWord(addr uint64, data uint32, w Width) bool
}

// DynamicWaiter is an optional Slave extension for state-dependent wait
// states (e.g. an EEPROM that stalls reads while a programming cycle is
// in progress). The returned value is added to the static wait states.
type DynamicWaiter interface {
	ExtraWait(k Kind, addr uint64) int
}

// ExtraWaitOf returns the dynamic extra wait of s for the access, or 0.
func ExtraWaitOf(s Slave, k Kind, addr uint64) int {
	if d, ok := s.(DynamicWaiter); ok {
		return d.ExtraWait(k, addr)
	}
	return 0
}

// Passthrough is an optional Slave extension for wrappers that can be
// behaviorally transparent: when the second result is true, every
// Slave/DynamicWaiter call on the wrapper is a pure delegation to the
// returned inner slave, so hot paths may call the inner slave directly.
type Passthrough interface {
	Passthrough() (Slave, bool)
}

// Unwrap peels transparent wrappers off a slave chain.
func Unwrap(s Slave) Slave {
	for {
		p, ok := s.(Passthrough)
		if !ok {
			return s
		}
		inner, transparent := p.Passthrough()
		if !transparent {
			return s
		}
		s = inner
	}
}

// EnergyReporter is an optional Slave extension: peripherals with
// characterized internal access energy (the paper's future-work item)
// report it here; the platform energy accounting adds it to bus energy.
type EnergyReporter interface {
	// AccessEnergy returns the internal energy in joules dissipated by
	// one access of the given kind.
	AccessEnergy(k Kind) float64
}

// Target is one slave of a Map as the bus controller resolved it when
// the slave was added: the slave with its transparent wrappers peeled
// (Unwrap: every call on it is the call the wrapper would have passed
// on), its snapshotted config and its dynamic-wait extension (nil when
// it has none). A bus decodes a transaction to a Target index once and
// reads everything from here.
type Target struct {
	Slave  Slave
	Config SlaveConfig
	Waiter DynamicWaiter
}

// ExtraWait returns the slave's dynamic extra wait for the access, or
// 0 when it has none.
func (t *Target) ExtraWait(k Kind, addr uint64) int {
	if t.Waiter == nil {
		return 0
	}
	return t.Waiter.ExtraWait(k, addr)
}

// Map is the bus controller's address decoder: an ordered set of
// non-overlapping slave ranges. Each slave is resolved into a Target at
// Add time — every Slave in this codebase returns a fixed config — so
// decoding runs on a flat array instead of chasing Config() and type
// assertions through wrapper interfaces on every transaction.
type Map struct {
	slaves  []Slave
	targets []Target
}

// NewMap builds an address map from the given slaves, rejecting invalid
// configs and overlapping ranges.
func NewMap(slaves ...Slave) (*Map, error) {
	m := &Map{}
	for _, s := range slaves {
		if err := m.Add(s); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// MustMap is NewMap that panics on error, for tests and examples.
func MustMap(slaves ...Slave) *Map {
	m, err := NewMap(slaves...)
	if err != nil {
		panic(err)
	}
	return m
}

// Add inserts a slave, keeping ranges sorted and rejecting overlap.
func (m *Map) Add(s Slave) error {
	c := s.Config()
	if err := c.Validate(); err != nil {
		return err
	}
	for _, ex := range m.targets {
		e := ex.Config
		if c.Base < e.End() && e.Base < c.End() {
			return fmt.Errorf("ecbus: slave %q [%#x,%#x) overlaps %q [%#x,%#x)",
				c.Name, c.Base, c.End(), e.Name, e.Base, e.End())
		}
	}
	u := Unwrap(s)
	w, _ := u.(DynamicWaiter)
	m.slaves = append(m.slaves, s)
	m.targets = append(m.targets, Target{Slave: u, Config: c, Waiter: w})
	// Keep sorted by base for deterministic decode and iteration.
	for i := len(m.slaves) - 1; i > 0; i-- {
		if m.targets[i].Config.Base < m.targets[i-1].Config.Base {
			m.slaves[i], m.slaves[i-1] = m.slaves[i-1], m.slaves[i]
			m.targets[i], m.targets[i-1] = m.targets[i-1], m.targets[i]
		}
	}
	return nil
}

// Slaves returns the slaves in ascending base-address order.
func (m *Map) Slaves() []Slave { return m.slaves }

// Names returns the slave names in Lookup order.
func (m *Map) Names() []string {
	names := make([]string, len(m.targets))
	for i := range m.targets {
		names[i] = m.targets[i].Config.Name
	}
	return names
}

// Target returns the i-th slave's resolved target (the Lookup
// numbering).
func (m *Map) Target(i int) *Target { return &m.targets[i] }

// Lookup decodes an access of the given kind and extent once. It
// returns the index of the slave whose range contains addr, or -1 on a
// decode miss; the index is the layer-0 decoder select value (and so
// contributes decoder output transitions to the energy model). ok
// reports whether the access is legal: it decodes, stays inside the
// slave's range and is allowed by its rights bits. An illegal access is
// one the bus controller terminates with a bus error.
func (m *Map) Lookup(kind Kind, addr uint64, bytes int) (i int, ok bool) {
	// Linear scan: smart-card maps have a handful of slaves, and this is
	// on the simulator fast path, where branch-predictable scans beat
	// binary search at these sizes.
	for i := range m.targets {
		c := &m.targets[i].Config
		if c.Contains(addr) {
			return i, (bytes <= 0 || c.Contains(addr+uint64(bytes)-1)) && c.Allows(kind)
		}
	}
	return -1, false
}
