package platform

// Accessors only this package's tests use.

import "repro/internal/ecbus"

// Inner returns the wrapped slave.
func (m *SlaveMeter) Inner() ecbus.Slave { return m.inner }
