package store

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"repro/internal/hash"
)

// DefaultShards is the shard count of NewMemStore, and of NewShardedStore
// when asked for zero or fewer shards. 64 keeps per-shard contention
// negligible on typical machines while the per-shard overhead (a mutex and
// an empty map) stays trivial.
const DefaultShards = 64

// MemStore is the in-memory Store, partitioned into N independently
// locked shards. Content addressing makes sharding natural: the SHA-256 key
// is uniformly distributed, so the leading bytes of the digest pick a shard
// and concurrent writers touch disjoint locks almost always. Accounting
// uses atomic counters, so Stats never serializes the data path either.
// The zero value is not usable; call NewMemStore or NewShardedStore.
type MemStore struct {
	mask   uint32
	shards []memShard
	ctr    counters
	meta   metaMap
	bar    barrierHolder
}

type memShard struct {
	mu    sync.RWMutex
	nodes map[hash.Hash][]byte
	// gets and misses count this shard's Gets. They sit on the line the
	// read lock already dirties, so a Get writes no line that every other
	// reader writes too.
	gets, misses atomic.Int64
	// pad the 48 bytes of mutex+map+counters up to a full 64-byte cache
	// line so neighbouring shard locks do not false-share under heavy
	// concurrent writes.
	_ [16]byte
}

// NewMemStore returns an empty in-memory store with DefaultShards shards.
func NewMemStore() *MemStore { return NewShardedStore(DefaultShards) }

// NewShardedStore returns an empty in-memory store with n shards, rounded
// up to the next power of two. n <= 0 selects DefaultShards.
func NewShardedStore(n int) *MemStore {
	if n <= 0 {
		n = DefaultShards
	}
	size := 1
	for size < n {
		size <<= 1
	}
	s := &MemStore{
		mask:   uint32(size - 1),
		shards: make([]memShard, size),
	}
	for i := range s.shards {
		s.shards[i].nodes = make(map[hash.Hash][]byte)
	}
	return s
}

// ShardCount returns the number of shards (always a power of two).
func (s *MemStore) ShardCount() int { return len(s.shards) }

// shardIndex picks the shard owning h from the digest's leading bytes,
// which SHA-256 distributes uniformly.
func (s *MemStore) shardIndex(h hash.Hash) uint32 {
	return binary.BigEndian.Uint32(h[:4]) & s.mask
}

// shardFor returns the shard owning h.
func (s *MemStore) shardFor(h hash.Hash) *memShard {
	return &s.shards[s.shardIndex(h)]
}

// Put implements Store. The data is copied, so callers may reuse their
// buffer.
func (s *MemStore) Put(data []byte) hash.Hash {
	h := hash.Of(data)
	if b := s.bar.beginWrite(); b != nil {
		b.record(h)
	}
	defer s.bar.endWrite()
	s.ctr.rawNodes.Add(1)
	s.ctr.rawBytes.Add(int64(len(data)))
	sh := s.shardFor(h)
	sh.mu.Lock()
	if _, ok := sh.nodes[h]; ok {
		sh.mu.Unlock()
		s.ctr.dedupHits.Add(1)
		return h
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	sh.nodes[h] = cp
	sh.mu.Unlock()
	s.ctr.uniqueNodes.Add(1)
	s.ctr.uniqueBytes.Add(int64(len(data)))
	return h
}

// Get implements Store. The returned slice is the resident buffer, not a
// copy (see the Store.Get no-copy contract).
func (s *MemStore) Get(h hash.Hash) ([]byte, bool) {
	sh := s.shardFor(h)
	sh.gets.Add(1)
	sh.mu.RLock()
	data, ok := sh.nodes[h]
	sh.mu.RUnlock()
	if !ok {
		sh.misses.Add(1)
	}
	return data, ok
}

// Has implements Store.
func (s *MemStore) Has(h hash.Hash) bool {
	sh := s.shardFor(h)
	sh.mu.RLock()
	_, ok := sh.nodes[h]
	sh.mu.RUnlock()
	return ok
}

// Stats implements Store.
func (s *MemStore) Stats() Stats {
	st := s.ctr.snapshot()
	for i := range s.shards {
		st.Gets += s.shards[i].gets.Load()
		st.Misses += s.shards[i].misses.Load()
	}
	return st
}

// Len returns the number of distinct nodes resident across all shards.
func (s *MemStore) Len() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		total += len(sh.nodes)
		sh.mu.RUnlock()
	}
	return total
}

// SizeOf returns the stored size of h in bytes, or 0 if absent.
func (s *MemStore) SizeOf(h hash.Hash) int {
	sh := s.shardFor(h)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.nodes[h])
}
