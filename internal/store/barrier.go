package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/hash"
)

// This file implements the write barrier that lets a garbage-collection
// pass run concurrently with writers. The problem it solves: a
// mark-and-sweep pass computes its live set from the versions retained at
// mark start, so any node flushed *after* that instant — a staged commit's
// pages, a commit blob, even a dedup hit that re-puts content identical to
// a doomed node — is invisible to the mark and would be reclaimed out from
// under the writer. Arming a Barrier closes the window: every Put and
// PutBatch that lands while the barrier is armed records its digest, and
// the backend's Sweep treats every recorded digest as unconditionally live
// for that pass. Dedup hits are recorded too, which closes the subtler
// race where a new commit reuses content byte-identical to a node the pass
// is about to sweep.
//
// Arming synchronizes with in-flight writes: every write path opens a
// write window (barrierHolder.beginWrite/endWrite, a read lock) around
// recording and inserting, and arming takes the same lock in write mode.
// A write therefore lands entirely on one side of mark start — either
// every node of the batch is resident before the pass begins (so a sweep
// sees the whole batch and the committer's root re-check in
// version.Repo.Commit detects reclamation reliably), or the whole batch is
// recorded in the pass's barrier. Without the window a long batch could
// straddle a pass boundary: its early inserts swept mid-batch while its
// root lands after the sweep scanned that shard, leaving a committed
// version with holes that no re-check can see.

// ErrNoBarrier reports an ArmBarrier request against a store without the
// write-barrier capability.
var ErrNoBarrier = errors.New("store: backend does not support a GC write barrier")

// ErrBarrierArmed reports an ArmBarrier request while a barrier is already
// armed; concurrent GC passes over one store must be serialized by the
// caller.
var ErrBarrierArmed = errors.New("store: a GC write barrier is already armed")

// Barrier is the record of every digest written to a store since the
// barrier was armed. The garbage collector arms one at mark start and
// treats its contents as live for the pass; it keeps working (Has stays
// valid) after DisarmBarrier, so a pass may hand it to purge hooks.
type Barrier struct {
	mu  sync.Mutex
	set map[hash.Hash]struct{}
}

// newBarrier returns an empty barrier.
func newBarrier() *Barrier {
	return &Barrier{set: make(map[hash.Hash]struct{})}
}

// record notes one written digest.
func (b *Barrier) record(h hash.Hash) {
	b.mu.Lock()
	b.set[h] = struct{}{}
	b.mu.Unlock()
}

// recordAll notes every digest of one batch.
func (b *Barrier) recordAll(hashes []hash.Hash) {
	b.mu.Lock()
	for _, h := range hashes {
		b.set[h] = struct{}{}
	}
	b.mu.Unlock()
}

// Has reports whether h was written while the barrier was armed.
func (b *Barrier) Has(h hash.Hash) bool {
	b.mu.Lock()
	_, ok := b.set[h]
	b.mu.Unlock()
	return ok
}

// Len returns how many distinct digests the barrier has recorded.
func (b *Barrier) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.set)
}

// BarrierStore is the concurrent-GC capability of the store contract: a
// store that can record writes landing during a reclamation pass. Both
// built-in backends implement it; every Wrapper forwards it to the store
// it wraps, since indexes may write to the backing directly and the
// barrier must live where the bytes land.
type BarrierStore interface {
	// ArmBarrier installs a fresh write barrier and returns it. Every
	// subsequent Put/PutBatch records its digests (dedup hits included)
	// until DisarmBarrier. At most one barrier may be armed at a time;
	// arming over an armed barrier returns ErrBarrierArmed.
	ArmBarrier() (*Barrier, error)
	// DisarmBarrier removes the armed barrier, if any. The returned
	// *Barrier from ArmBarrier stays readable afterwards.
	DisarmBarrier()
}

// ArmBarrier arms a write barrier on s through its BarrierStore
// capability, reporting ErrNoBarrier for stores that lack it.
func ArmBarrier(s Store) (*Barrier, error) {
	if bs, ok := s.(BarrierStore); ok {
		return bs.ArmBarrier()
	}
	return nil, fmt.Errorf("%w: %T", ErrNoBarrier, s)
}

// DisarmBarrier removes the armed barrier from s, a no-op for stores
// without the capability.
func DisarmBarrier(s Store) {
	if bs, ok := s.(BarrierStore); ok {
		bs.DisarmBarrier()
	}
}

// barrierHolder is the per-backend armed-barrier slot. Write hot paths
// open a window with beginWrite/endWrite around record+insert; the common
// no-GC case costs one uncontended read lock and one atomic load. Arming
// excludes open windows, which is what makes every write atomic with
// respect to mark start (see the file comment).
type barrierHolder struct {
	// gate is held in read mode for the duration of every write (record
	// through insert) and in write mode, momentarily, by arm. It never
	// nests inside the store's own locks the other way around, so lock
	// order is always gate → store lock.
	gate sync.RWMutex
	p    atomic.Pointer[Barrier]
}

// arm installs a fresh barrier, failing if one is already armed. It waits
// for in-flight write windows to close, so when arm returns, every node of
// every earlier write is resident and every later write records into the
// new barrier.
func (bh *barrierHolder) arm() (*Barrier, error) {
	b := newBarrier()
	bh.gate.Lock()
	defer bh.gate.Unlock()
	if !bh.p.CompareAndSwap(nil, b) {
		return nil, ErrBarrierArmed
	}
	return b, nil
}

// disarm clears the slot. No window exclusion is needed: a write that
// loaded the retiring barrier just records into a set nobody will consult
// again.
func (bh *barrierHolder) disarm() { bh.p.Store(nil) }

// beginWrite opens a write window and returns the armed barrier (nil when
// none). While the window is open a barrier cannot appear or disappear, so
// the returned value is THE barrier for every node the write lands. Pair
// with endWrite after the insert completes.
func (bh *barrierHolder) beginWrite() *Barrier {
	bh.gate.RLock()
	return bh.p.Load()
}

// endWrite closes the window opened by beginWrite.
func (bh *barrierHolder) endWrite() { bh.gate.RUnlock() }

// wrap extends live with the armed barrier: a sweep must keep everything
// written since mark start regardless of reachability. Loading the pointer
// once up front pins the pass to the barrier armed when the sweep began.
func (bh *barrierHolder) wrap(live LiveFunc) LiveFunc {
	b := bh.p.Load()
	if b == nil {
		return live
	}
	return func(h hash.Hash) bool { return live(h) || b.Has(h) }
}

// Compile-time checks: every built-in store supports the write barrier.
var (
	_ BarrierStore = (*MemStore)(nil)
	_ BarrierStore = (*DiskStore)(nil)
	_ BarrierStore = (*CachedStore)(nil)
)

// ArmBarrier implements BarrierStore.
func (s *MemStore) ArmBarrier() (*Barrier, error) { return s.bar.arm() }

// DisarmBarrier implements BarrierStore.
func (s *MemStore) DisarmBarrier() { s.bar.disarm() }

// ArmBarrier implements BarrierStore.
func (d *DiskStore) ArmBarrier() (*Barrier, error) { return d.bar.arm() }

// DisarmBarrier implements BarrierStore.
func (d *DiskStore) DisarmBarrier() { d.bar.disarm() }
