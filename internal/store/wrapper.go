package store

import (
	"fmt"

	"repro/internal/hash"
)

// Wrapper is the forwarding base of every store wrapper (CachedStore,
// CountingStore, faultstore.FaultStore). It holds the wrapped store and
// implements Store and every optional capability — Batcher,
// HashedBatcher, Deleter, Sweeper, MetaStore, Flusher, BarrierStore,
// io.Closer and DiskUsage — by calling the package helper for it on the
// wrapped store, so a capability the wrapped store lacks reports the
// helper's usual result (ErrNoSweeper, ErrNoMeta, ErrNoBarrier, a looped
// Put). A wrapper embeds Wrapper and overrides only the methods it
// changes; a capability added to the contract reaches every wrapper here,
// once. ReadCounter is not forwarded: a read count belongs to the wrapper
// that counts.
//
// Embedding imposes one rule: the base's batch methods go straight to the
// wrapped store, not through the embedding type's Put, so a wrapper that
// overrides Put must also override PutBatch and PutBatchHashed.
type Wrapper struct {
	inner Store
}

// NewWrapper returns a forwarding base over inner.
func NewWrapper(inner Store) Wrapper { return Wrapper{inner: inner} }

// Unwrap returns the wrapped store.
func (w *Wrapper) Unwrap() Store { return w.inner }

// Put implements Store.
func (w *Wrapper) Put(data []byte) hash.Hash { return w.inner.Put(data) }

// Get implements Store.
func (w *Wrapper) Get(h hash.Hash) ([]byte, bool) { return w.inner.Get(h) }

// Has implements Store.
func (w *Wrapper) Has(h hash.Hash) bool { return w.inner.Has(h) }

// Stats implements Store.
func (w *Wrapper) Stats() Stats { return w.inner.Stats() }

// PutBatch implements Batcher.
func (w *Wrapper) PutBatch(items [][]byte) []hash.Hash { return PutBatch(w.inner, items) }

// PutBatchHashed implements HashedBatcher.
func (w *Wrapper) PutBatchHashed(hashes []hash.Hash, items [][]byte) {
	PutBatchHashed(w.inner, hashes, items)
}

// Delete implements Deleter.
func (w *Wrapper) Delete(h hash.Hash) (bool, error) { return Delete(w.inner, h) }

// Sweep implements Sweeper.
func (w *Wrapper) Sweep(live LiveFunc) (SweepStats, error) { return Sweep(w.inner, live) }

// SetMeta implements MetaStore.
func (w *Wrapper) SetMeta(key string, value []byte) error { return SetMeta(w.inner, key, value) }

// GetMeta implements MetaStore.
func (w *Wrapper) GetMeta(key string) ([]byte, bool, error) { return GetMeta(w.inner, key) }

// Flush implements Flusher.
func (w *Wrapper) Flush() error { return Flush(w.inner) }

// ArmBarrier implements BarrierStore.
func (w *Wrapper) ArmBarrier() (*Barrier, error) { return ArmBarrier(w.inner) }

// DisarmBarrier implements BarrierStore.
func (w *Wrapper) DisarmBarrier() { DisarmBarrier(w.inner) }

// Close implements io.Closer, so Release on the wrapper reaches a disk
// backend's file handles.
func (w *Wrapper) Close() error { return Release(w.inner) }

// DiskUsage reports the wrapped store's on-disk footprint, so DiskUsageOf
// sees through the wrapper.
func (w *Wrapper) DiskUsage() (int64, error) {
	if n, ok := DiskUsageOf(w.inner); ok {
		return n, nil
	}
	return 0, fmt.Errorf("store: wrapped %T reports no disk usage", w.inner)
}
