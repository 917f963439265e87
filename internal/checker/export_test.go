package checker

// Accessors only this package's tests use.

// Outstanding returns the number of wire-reconstructed transactions
// still awaiting beats, per direction. A clean trace of completed
// workloads ends with both at zero.
func (c *Checker) Outstanding() (reads, writes int) {
	return len(c.readTx), len(c.writeTx)
}
