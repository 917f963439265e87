package mem

// Accessors only this package's tests use.

// BusyUntil returns the first cycle at which the device is no longer in
// a self-timed programming cycle (0 when never programmed). Exposed for
// idle-skip tests: the stall is a pure function of the kernel cycle, so
// fast-forwarding across it must not change the sampled wait states.
func (e *EEPROM) BusyUntil() uint64 { return e.busyUntil }

// BusyUntil returns the first cycle at which the device is no longer in
// a self-timed programming phase (0 when never programmed).
func (f *Flash) BusyUntil() uint64 { return f.busyUntil }

// TearAt applies the partial-write corruption model for a power loss at
// the given cycle; see EEPROM.TearAt.
func (f *Flash) TearAt(cycle, seed uint64) (TornWord, bool) {
	return tearAt(&f.array, f.last, f.programs, f.busyUntil, cycle, seed)
}

// Programs returns the number of programming operations performed.
func (f *Flash) Programs() uint64 { return f.programs }
