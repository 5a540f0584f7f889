package store

// Flusher is an optional capability: push buffered writes down to the
// operating system. Only DiskStore actually buffers (appends sit in a
// bufio.Writer until FlushBytes accumulate), so only it has a non-trivial
// implementation; every Wrapper forwards to the store it wraps. Flush does NOT
// fsync — it moves bytes from process memory into the OS page cache, which
// is the boundary that matters for process-crash consistency: after a
// successful Flush, a crash of this process (panic, kill -9) cannot lose
// the flushed records, only a whole-machine crash can. internal/version
// flushes before persisting branch heads so a durable head never points at
// records still sitting in a write buffer the process would take down with
// it.
type Flusher interface {
	// Flush pushes every buffered write to the OS, returning the first
	// write or flush error encountered.
	Flush() error
}

// Flush pushes s's buffered writes to the OS through its Flusher
// capability; stores without one (MemStore) have nothing
// buffered and report nil.
func Flush(s Store) error {
	if f, ok := s.(Flusher); ok {
		return f.Flush()
	}
	return nil
}

// Compile-time checks: the backends that buffer (or wrap a buffering
// store) expose Flush.
var (
	_ Flusher = (*DiskStore)(nil)
	_ Flusher = (*CachedStore)(nil)
)

// Flush implements Flusher: buffered appends reach the OS file. Unlike
// Sync it does not fsync, and unlike Sync it reports only flush errors,
// not the store's sticky lifetime error.
func (d *DiskStore) Flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return d.err
	}
	return d.flushLocked()
}
