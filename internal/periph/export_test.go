package periph

// Accessors only this package's tests use.

// Raised returns the total number of raise events.
func (ic *IntController) Raised() uint64 { return ic.raised }

// Flag reports the expiry flag.
func (t *Timer) Flag() bool { return t.flag }
