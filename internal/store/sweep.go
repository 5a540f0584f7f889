package store

import (
	"errors"
	"fmt"

	"repro/internal/hash"
)

// ErrNoSweeper reports a Delete or Sweep request against a store whose
// backing does not support space reclamation.
var ErrNoSweeper = errors.New("store: backend does not support delete/sweep")

// Deleter is the single-node reclamation capability of the store contract.
// Content addressing makes deletion safe only when the caller knows no live
// version references the node — the store cannot tell, so the capability is
// reserved for the garbage collector in internal/version, which computes
// reachability first.
//
// Both built-in backends implement Deleter, and every Wrapper forwards it.
// For MemStore a delete frees the node immediately; for DiskStore it is
// logical — the node becomes unreadable and its bytes are reclaimed by the
// next Sweep compaction (until then, a crash or reopen resurrects the
// record from the segment scan, which is harmless garbage, not a
// correctness issue).
type Deleter interface {
	// Delete removes the node stored under h, returning whether it was
	// present. Deleting an absent node is a no-op. Wrappers return
	// ErrNoSweeper when the store they wrap cannot delete.
	Delete(h hash.Hash) (bool, error)
}

// LiveFunc reports whether the node stored under h must be retained.
// Implementations must be pure and fast: Sweep calls it once per resident
// node while holding store locks.
type LiveFunc func(hash.Hash) bool

// Sweeper is the bulk reclamation capability: one pass that keeps exactly
// the nodes a LiveFunc marks and reclaims everything else. It is the store
// half of mark-and-sweep garbage collection — internal/version computes the
// live set (the union of nodes reachable from every retained commit) and
// hands it here as the predicate.
//
// Safety contract: concurrent readers of retained nodes are safe on every
// built-in backend, and Sweep may overlap writers when a write barrier is
// armed (BarrierStore): every built-in Sweep unions the armed barrier into
// the live predicate, so nodes flushed since the barrier was armed — an
// in-flight core.StagedWriter commit, for example — survive the pass even
// though no retained version reaches them yet. Without an armed barrier
// the old rule applies: callers must quiesce writers for the duration of
// the sweep, or freshly flushed not-yet-committed nodes are reclaimed as
// unreachable. internal/version.Repo.GC arms the barrier for every pass on
// a capable store.
type Sweeper interface {
	// Sweep removes every resident node h for which live(h) is false and
	// returns the reclamation accounting. DiskStore additionally compacts
	// segment files whose live fraction fell below the configured
	// threshold, rewriting them crash-safely (write-new-then-swap).
	Sweep(live LiveFunc) (SweepStats, error)
}

// SweepStats is the accounting of one Sweep pass.
type SweepStats struct {
	LiveNodes  int64 // nodes retained
	LiveBytes  int64 // bytes of retained nodes
	SweptNodes int64 // nodes reclaimed
	SweptBytes int64 // bytes of reclaimed nodes
	// SegmentsCompacted counts segment files rewritten by DiskStore; zero
	// for MemStore.
	SegmentsCompacted int
}

// String renders the counters in a compact single line for logs.
func (s SweepStats) String() string {
	return fmt.Sprintf("live=%d nodes/%d B swept=%d nodes/%d B compacted=%d segs",
		s.LiveNodes, s.LiveBytes, s.SweptNodes, s.SweptBytes, s.SegmentsCompacted)
}

// Delete removes h from s through its Deleter capability, reporting
// ErrNoSweeper for stores that lack it.
func Delete(s Store, h hash.Hash) (bool, error) {
	if d, ok := s.(Deleter); ok {
		return d.Delete(h)
	}
	return false, fmt.Errorf("%w: %T", ErrNoSweeper, s)
}

// Sweep runs a mark-complement sweep on s through its Sweeper capability,
// reporting ErrNoSweeper for stores that lack it.
func Sweep(s Store, live LiveFunc) (SweepStats, error) {
	if sw, ok := s.(Sweeper); ok {
		return sw.Sweep(live)
	}
	return SweepStats{}, fmt.Errorf("%w: %T", ErrNoSweeper, s)
}

// Compile-time checks: every built-in store supports reclamation.
var (
	_ Deleter = (*MemStore)(nil)
	_ Deleter = (*DiskStore)(nil)
	_ Deleter = (*CachedStore)(nil)
	_ Sweeper = (*MemStore)(nil)
	_ Sweeper = (*DiskStore)(nil)
	_ Sweeper = (*CachedStore)(nil)
)

// Delete implements Deleter on the owning shard.
func (s *MemStore) Delete(h hash.Hash) (bool, error) {
	sh := s.shardFor(h)
	sh.mu.Lock()
	data, ok := sh.nodes[h]
	if ok {
		delete(sh.nodes, h)
	}
	sh.mu.Unlock()
	if !ok {
		return false, nil
	}
	s.ctr.uniqueNodes.Add(-1)
	s.ctr.uniqueBytes.Add(-int64(len(data)))
	return true, nil
}

// Sweep implements Sweeper shard by shard; each shard lock is held only for
// its own pass, so concurrent readers and writers of other shards proceed.
// The armed barrier, if any, extends the live predicate so writes landing
// during the pass survive it.
func (s *MemStore) Sweep(live LiveFunc) (SweepStats, error) {
	live = s.bar.wrap(live)
	var st SweepStats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for h, data := range sh.nodes {
			if live(h) {
				st.LiveNodes++
				st.LiveBytes += int64(len(data))
				continue
			}
			delete(sh.nodes, h)
			st.SweptNodes++
			st.SweptBytes += int64(len(data))
		}
		sh.mu.Unlock()
	}
	s.ctr.uniqueNodes.Add(-st.SweptNodes)
	s.ctr.uniqueBytes.Add(-st.SweptBytes)
	return st, nil
}

// Delete implements Deleter: the entry is evicted locally and the delete is
// forwarded to the backing store.
func (c *CachedStore) Delete(h hash.Hash) (bool, error) {
	c.mu.Lock()
	c.evict(h)
	c.mu.Unlock()
	return c.Wrapper.Delete(h)
}

// Sweep implements Sweeper: the backing store sweeps, then dead entries are
// purged from the LRU so the cache can never resurrect a reclaimed node.
func (c *CachedStore) Sweep(live LiveFunc) (SweepStats, error) {
	st, err := c.Wrapper.Sweep(live)
	if err == nil {
		c.Purge(live)
	}
	return st, err
}

// evict removes h from the LRU if present. Caller holds c.mu.
func (c *CachedStore) evict(h hash.Hash) {
	el, ok := c.entries[h]
	if !ok {
		return
	}
	ent := el.Value.(*cacheEntry)
	c.order.Remove(el)
	delete(c.entries, h)
	c.bytes -= int64(len(ent.data))
}
