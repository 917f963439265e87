package ecbus

// Accessors only this package's tests use.

// Dirty returns the dirty mask (bit i set = signal i written to a new
// value since the last TakeDirty).
func (b *Bundle) Dirty() uint32 { return b.dirty }

// MarkAllDirty flags every signal dirty, forcing the next delta-driven
// observation to scan the full bundle.
func (b *Bundle) MarkAllDirty() {
	b.dirty = 1<<uint(NumSignals) - 1
}
