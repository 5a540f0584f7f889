package store

import (
	"sync"

	"repro/internal/hash"
)

// Batcher is the batch write path of the store contract. A single PutBatch
// call persists many nodes with one round of synchronization: the in-memory
// backend takes each shard lock once for the whole batch and the disk backend
// turns the batch into one buffered append run. Semantics are exactly those
// of calling Put on every item in order — same returned digests, same
// dedup and accounting — only cheaper.
//
// Both built-in backends and every Wrapper implement Batcher; use the
// package-level PutBatch helper to get a looped-Put fallback for foreign
// stores.
type Batcher interface {
	// PutBatch stores every item under its SHA-256 digest and returns the
	// digests in item order. Duplicate items (within the batch or against
	// existing content) are deduplicated no-ops, as with Put.
	PutBatch(items [][]byte) []hash.Hash
}

// HashedBatcher is an optional extension of Batcher for Merkle committers
// that already computed every item's digest while hashing bottom-up: it
// stores the batch without re-hashing.
//
// Correctness contract: hashes[i] MUST equal hash.Of(items[i]). The store
// does not verify this; a wrong digest corrupts content addressing (and a
// DiskStore would silently drop the record on its next rebuild-on-open
// scan, where the digest doubles as a checksum). The only intended caller
// is core.StagedWriter, which derives the digests with hash.Of.
type HashedBatcher interface {
	Batcher
	// PutBatchHashed stores items under the caller-computed digests.
	PutBatchHashed(hashes []hash.Hash, items [][]byte)
}

// PutBatch writes items to s through its Batcher fast path when it has one,
// falling back to a loop of Puts for foreign Store implementations.
func PutBatch(s Store, items [][]byte) []hash.Hash {
	if b, ok := s.(Batcher); ok {
		return b.PutBatch(items)
	}
	hs := make([]hash.Hash, len(items))
	for i, it := range items {
		hs[i] = s.Put(it)
	}
	return hs
}

// PutBatchHashed writes a pre-hashed batch through s's HashedBatcher fast
// path when it has one. Foreign stores fall back to Put, which recomputes
// the digests (and thereby also re-verifies them).
func PutBatchHashed(s Store, hashes []hash.Hash, items [][]byte) {
	if hb, ok := s.(HashedBatcher); ok {
		hb.PutBatchHashed(hashes, items)
		return
	}
	for _, it := range items {
		s.Put(it)
	}
}

// Compile-time checks: every built-in store supports both batch paths.
var (
	_ HashedBatcher = (*MemStore)(nil)
	_ HashedBatcher = (*DiskStore)(nil)
	_ HashedBatcher = (*CachedStore)(nil)
)

// PutBatch implements Batcher: items are hashed lock-free (across the hash
// package's worker pool), grouped by shard, and each shard's lock is taken
// once for its whole group.
func (s *MemStore) PutBatch(items [][]byte) []hash.Hash {
	hs := hash.OfAll(items)
	s.PutBatchHashed(hs, items)
	return hs
}

// batchShardConcurrency caps the goroutines one PutBatchHashed call spawns
// to write shard groups concurrently. Shard groups touch disjoint locks and
// disjoint maps, so the only shared state is the atomic counters.
var batchShardConcurrency = 8

// batchConcurrencyCutoff is the batch size below which shard groups are
// written sequentially; tiny batches don't amortize goroutine startup.
const batchConcurrencyCutoff = 256

// PutBatchHashed implements HashedBatcher. The whole batch runs inside one
// barrier write window: an armed barrier records every digest before the
// nodes become visible, and a barrier armed mid-batch waits for the batch
// to finish — so a concurrent GC pass either sees the entire batch
// resident before its mark starts (the committer's root re-check covers
// that side) or has every node of it recorded as live.
func (s *MemStore) PutBatchHashed(hashes []hash.Hash, items [][]byte) {
	if b := s.bar.beginWrite(); b != nil {
		b.recordAll(hashes)
	}
	defer s.bar.endWrite()
	// Group item indices by owning shard so each shard lock is acquired at
	// most once per batch, regardless of batch size.
	groups := make(map[uint32][]int, 16)
	for i, h := range hashes {
		sh := s.shardIndex(h)
		groups[sh] = append(groups[sh], i)
	}
	writeGroup := func(sh uint32, idxs []int) {
		shard := &s.shards[sh]
		var added, addedBytes, dup int64
		var raw, rawBytes int64
		shard.mu.Lock()
		for _, i := range idxs {
			data := items[i]
			h := hashes[i]
			raw++
			rawBytes += int64(len(data))
			if _, ok := shard.nodes[h]; ok {
				dup++
				continue
			}
			cp := make([]byte, len(data))
			copy(cp, data)
			shard.nodes[h] = cp
			added++
			addedBytes += int64(len(data))
		}
		shard.mu.Unlock()
		s.ctr.rawNodes.Add(raw)
		s.ctr.rawBytes.Add(rawBytes)
		s.ctr.dedupHits.Add(dup)
		s.ctr.uniqueNodes.Add(added)
		s.ctr.uniqueBytes.Add(addedBytes)
	}
	if len(items) < batchConcurrencyCutoff || len(groups) == 1 {
		for sh, idxs := range groups {
			writeGroup(sh, idxs)
		}
		return
	}
	// Write shard groups concurrently: each group copies its items under
	// its own shard lock, so a big commit's memcpy cost spreads across
	// cores instead of running as one serial loop.
	sem := make(chan struct{}, batchShardConcurrency)
	var wg sync.WaitGroup
	for sh, idxs := range groups {
		sem <- struct{}{}
		wg.Add(1)
		go func(sh uint32, idxs []int) {
			defer func() {
				<-sem
				wg.Done()
			}()
			writeGroup(sh, idxs)
		}(sh, idxs)
	}
	wg.Wait()
}

// PutBatch implements Batcher: one lock acquisition turns the whole batch
// into a single buffered append run (segment rolls and FlushBytes-driven
// flushes still apply inside).
func (d *DiskStore) PutBatch(items [][]byte) []hash.Hash {
	hs := hash.OfAll(items)
	d.PutBatchHashed(hs, items)
	return hs
}

// PutBatchHashed implements HashedBatcher. The batch runs inside one
// barrier write window (see MemStore.PutBatchHashed): recorded before the
// appends land, and never straddling a barrier arm.
func (d *DiskStore) PutBatchHashed(hashes []hash.Hash, items [][]byte) {
	if b := d.bar.beginWrite(); b != nil {
		b.recordAll(hashes)
	}
	defer d.bar.endWrite()
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, data := range items {
		d.putLocked(hashes[i], data)
	}
}

// PutBatch implements Batcher: the batch goes to the backing store's batch
// path, then the cache is populated under one lock acquisition.
func (c *CachedStore) PutBatch(items [][]byte) []hash.Hash {
	hs := hash.OfAll(items)
	c.PutBatchHashed(hs, items)
	return hs
}

// PutBatchHashed implements HashedBatcher.
func (c *CachedStore) PutBatchHashed(hashes []hash.Hash, items [][]byte) {
	PutBatchHashed(c.inner, hashes, items)
	c.mu.Lock()
	for i, data := range items {
		c.insert(hashes[i], data)
	}
	c.mu.Unlock()
}
