package tear

// Accessors only this package's tests use.

// Torn reports whether the monitor has latched.
func (m *Monitor) Torn() bool { return m != nil && m.torn }

// CutEnergyJ returns the meter total sampled at the latch.
func (m *Monitor) CutEnergyJ() float64 { return m.cutJ }
