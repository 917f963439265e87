package journal

// Accessors only this package's tests use.

// Seq returns the sequence number of the last durable frame — the
// transaction count of the committed prefix.
func (w *Writer) Seq() uint32 { return w.seq }
