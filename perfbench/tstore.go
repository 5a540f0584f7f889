package main

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/hash"
	"repro/internal/store"
	"repro/internal/version"
)

// tstore is the timing store wrapper handed to the indexes and the repo. It
// counts every call, records a span around it when tracing is on, and
// forwards every capability the wrapped store has. A capability it failed
// to forward would silently switch the program onto a fallback path (a
// repo without MetaStore stops persisting heads, a GC without BarrierStore
// stops the world), so openRepo checks with lostCaps that nothing the
// inner store offers is lost.
type tstore struct {
	inner store.Store
	tr    *tracer

	gets, puts, putBytes, flushes, metas atomic.Int64
}

func newTStore(inner store.Store, tr *tracer) *tstore { return &tstore{inner: inner, tr: tr} }

// storeCounts is a snapshot of the wrapper's counters.
type storeCounts struct {
	Gets, Puts, PutBytes, Flushes, Metas int64
}

func (c storeCounts) minus(o storeCounts) storeCounts {
	return storeCounts{c.Gets - o.Gets, c.Puts - o.Puts, c.PutBytes - o.PutBytes, c.Flushes - o.Flushes, c.Metas - o.Metas}
}

// sameWork reports whether two runs did the same store work: identical
// writes, and reads within 0.1%. Reads are not exact because the index
// caches (core.NodeCache) do not coalesce concurrent misses, so MBT's
// parallel commit workers occasionally fetch one node twice.
func (c storeCounts) sameWork(o storeCounts) bool {
	d := c.Gets - o.Gets
	return c.Puts == o.Puts && c.PutBytes == o.PutBytes && c.Flushes == o.Flushes && c.Metas == o.Metas &&
		max(d, -d) <= c.Gets/1000
}

func (t *tstore) counts() storeCounts {
	return storeCounts{t.gets.Load(), t.puts.Load(), t.putBytes.Load(), t.flushes.Load(), t.metas.Load()}
}

func (t *tstore) Put(data []byte) hash.Hash {
	i := t.tr.begin("store.Put")
	t.puts.Add(1)
	t.putBytes.Add(int64(len(data)))
	h := t.inner.Put(data)
	t.tr.end(i)
	return h
}

func (t *tstore) Get(h hash.Hash) ([]byte, bool) {
	i := t.tr.begin("store.Get")
	t.gets.Add(1)
	d, ok := t.inner.Get(h)
	t.tr.end(i)
	return d, ok
}

func (t *tstore) Has(h hash.Hash) bool { return t.inner.Has(h) }

func (t *tstore) Stats() store.Stats { return t.inner.Stats() }

func (t *tstore) addBatch(items [][]byte) {
	t.puts.Add(int64(len(items)))
	n := 0
	for _, it := range items {
		n += len(it)
	}
	t.putBytes.Add(int64(n))
}

// PutBatch implements store.Batcher.
func (t *tstore) PutBatch(items [][]byte) []hash.Hash {
	i := t.tr.begin("store.PutBatch")
	t.addBatch(items)
	hs := store.PutBatch(t.inner, items)
	t.tr.end(i)
	return hs
}

// PutBatchHashed implements store.HashedBatcher.
func (t *tstore) PutBatchHashed(hashes []hash.Hash, items [][]byte) {
	i := t.tr.begin("store.PutBatch")
	t.addBatch(items)
	store.PutBatchHashed(t.inner, hashes, items)
	t.tr.end(i)
}

// SetMeta implements store.MetaStore.
func (t *tstore) SetMeta(key string, value []byte) error {
	i := t.tr.begin("store.SetMeta")
	t.metas.Add(1)
	err := store.SetMeta(t.inner, key, value)
	t.tr.end(i)
	return err
}

// GetMeta implements store.MetaStore.
func (t *tstore) GetMeta(key string) ([]byte, bool, error) { return store.GetMeta(t.inner, key) }

// Flush implements store.Flusher.
func (t *tstore) Flush() error {
	i := t.tr.begin("store.Flush")
	t.flushes.Add(1)
	err := store.Flush(t.inner)
	t.tr.end(i)
	return err
}

// ArmBarrier implements store.BarrierStore.
func (t *tstore) ArmBarrier() (*store.Barrier, error) { return store.ArmBarrier(t.inner) }

// DisarmBarrier implements store.BarrierStore.
func (t *tstore) DisarmBarrier() { store.DisarmBarrier(t.inner) }

// Delete implements store.Deleter.
func (t *tstore) Delete(h hash.Hash) (bool, error) { return store.Delete(t.inner, h) }

// Sweep implements store.Sweeper.
func (t *tstore) Sweep(live store.LiveFunc) (store.SweepStats, error) {
	i := t.tr.begin("store.Sweep")
	st, err := store.Sweep(t.inner, live)
	t.tr.end(i)
	return st, err
}

// Close implements io.Closer.
func (t *tstore) Close() error { return store.Release(t.inner) }

// DiskUsage reports the wrapped store's on-disk footprint.
func (t *tstore) DiskUsage() (int64, error) {
	n, ok := store.DiskUsageOf(t.inner)
	if !ok {
		return 0, errors.New("perfbench: wrapped store reports no disk usage")
	}
	return n, nil
}

// capabilities lists the optional store interfaces DiskStore implements,
// each of which some part of the program probes for.
var capabilities = []struct {
	name string
	has  func(store.Store) bool
}{
	{"Batcher", func(s store.Store) bool { _, ok := s.(store.Batcher); return ok }},
	{"HashedBatcher", func(s store.Store) bool { _, ok := s.(store.HashedBatcher); return ok }},
	{"MetaStore", func(s store.Store) bool { _, ok := s.(store.MetaStore); return ok }},
	{"Flusher", func(s store.Store) bool { _, ok := s.(store.Flusher); return ok }},
	{"BarrierStore", func(s store.Store) bool { _, ok := s.(store.BarrierStore); return ok }},
	{"Deleter", func(s store.Store) bool { _, ok := s.(store.Deleter); return ok }},
	{"Sweeper", func(s store.Store) bool { _, ok := s.(store.Sweeper); return ok }},
	{"io.Closer", func(s store.Store) bool { _, ok := s.(io.Closer); return ok }},
	{"DiskUsage", func(s store.Store) bool { _, ok := s.(interface{ DiskUsage() (int64, error) }); return ok }},
}

// lostCaps names the capabilities inner has that wrapped lacks.
func lostCaps(inner, wrapped store.Store) []string {
	var lost []string
	for _, c := range capabilities {
		if c.has(inner) && !c.has(wrapped) {
			lost = append(lost, c.name)
		}
	}
	return lost
}

// openRepo opens a DiskStore with the product's default flush policy
// (SyncOnFlush off: durable means flushed to the OS) behind the timing
// wrapper, and a repo over it with a deterministic commit clock.
// wrap, when set, layers a store between the DiskStore and the timing
// wrapper (the tests inject latency with it).
func openRepo(dir string, tr *tracer, wrap func(store.Store) store.Store) (*tstore, *version.Repo, error) {
	disk, err := store.OpenDiskStore(dir, store.DiskOptions{})
	if err != nil {
		return nil, nil, err
	}
	var inner store.Store = disk
	if wrap != nil {
		inner = wrap(disk)
	}
	ts := newTStore(inner, tr)
	if lost := lostCaps(inner, ts); len(lost) > 0 {
		disk.Close()
		return nil, nil, fmt.Errorf("timing store wrapper drops capabilities %v", lost)
	}
	repo := version.NewRepo(ts)
	tick := int64(0)
	repo.SetClock(func() time.Time { tick++; return time.Unix(1_600_000_000, tick) })
	return ts, repo, nil
}
