package platform

import "repro/internal/ecbus"

// SlaveMeter wraps a slave and accounts its internal access energy using
// the slave's EnergyReporter characterization (zero for slaves without
// one). It forwards dynamic wait states transparently.
type SlaveMeter struct {
	inner ecbus.Slave

	Reads  uint64
	Writes uint64
}

// NewSlaveMeter wraps s.
func NewSlaveMeter(s ecbus.Slave) *SlaveMeter { return &SlaveMeter{inner: s} }

// Config implements ecbus.Slave.
func (m *SlaveMeter) Config() ecbus.SlaveConfig { return m.inner.Config() }

// ReadWord implements ecbus.Slave, counting the access.
func (m *SlaveMeter) ReadWord(addr uint64, w ecbus.Width) (uint32, bool) {
	m.Reads++
	return m.inner.ReadWord(addr, w)
}

// WriteWord implements ecbus.Slave, counting the access.
func (m *SlaveMeter) WriteWord(addr uint64, data uint32, w ecbus.Width) bool {
	m.Writes++
	return m.inner.WriteWord(addr, data, w)
}

// ExtraWait forwards the inner slave's dynamic wait states.
func (m *SlaveMeter) ExtraWait(k ecbus.Kind, addr uint64) int {
	return ecbus.ExtraWaitOf(m.inner, k, addr)
}

// Energy returns the accumulated characterized internal energy.
func (m *SlaveMeter) Energy() float64 {
	er, ok := m.inner.(ecbus.EnergyReporter)
	if !ok {
		return 0
	}
	return float64(m.Reads)*er.AccessEnergy(ecbus.Read) +
		float64(m.Writes)*er.AccessEnergy(ecbus.Write)
}
