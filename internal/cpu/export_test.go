package cpu

// Accessors only this package's tests use.

// Halt stops the CPU cleanly (no fault recorded); used by SYSCALL hooks
// implementing an exit service.
func (c *CPU) Halt() { c.st = stHalted }

// Invalidate clears the whole cache (e.g. after self-modifying stores).
func (c *ICache) Invalidate() {
	for i := range c.lines {
		c.lines[i].valid = false
	}
}
