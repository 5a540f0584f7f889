package store

import (
	"container/list"
	"sync"

	"repro/internal/hash"
)

// CachedStore layers a bounded LRU node cache over a backing Store. It is
// the client-side read path of the Forkbase-style system experiment
// (Figure 21): remote node fetches hit the backing store, while repeated
// reads of hot nodes are served locally. Because nodes are immutable and
// content-addressed, the cache never needs invalidation — except by
// reclamation, which is why Delete and Sweep evict as well as forward.
// The remaining capabilities (metadata, flush, write barrier, close, disk
// usage) come from the embedded Wrapper: the cache writes through, and
// index structures may hold the backing store directly, so they must act
// where the bytes land.
type CachedStore struct {
	Wrapper

	mu      sync.Mutex
	entries map[hash.Hash]*list.Element
	order   *list.List // front = most recently used
	bytes   int64
	maxB    int64
	hits    int64
	misses  int64
}

type cacheEntry struct {
	h    hash.Hash
	data []byte
}

// NewCachedStore wraps backing with an LRU cache bounded to maxBytes of node
// content. A maxBytes of 0 disables caching (every Get goes to backing).
func NewCachedStore(backing Store, maxBytes int64) *CachedStore {
	return &CachedStore{
		Wrapper: NewWrapper(backing),
		entries: make(map[hash.Hash]*list.Element),
		order:   list.New(),
		maxB:    maxBytes,
	}
}

// Put writes through to the backing store and populates the cache, since a
// node just written is likely to be re-read while building parents.
func (c *CachedStore) Put(data []byte) hash.Hash {
	h := c.inner.Put(data)
	c.mu.Lock()
	c.insert(h, data)
	c.mu.Unlock()
	return h
}

// Get serves from cache when possible, falling back to the backing store.
func (c *CachedStore) Get(h hash.Hash) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.entries[h]; ok {
		c.order.MoveToFront(el)
		data := el.Value.(*cacheEntry).data
		c.hits++
		c.mu.Unlock()
		return data, true
	}
	c.misses++
	c.mu.Unlock()

	data, ok := c.inner.Get(h)
	if ok {
		c.mu.Lock()
		c.insert(h, data)
		c.mu.Unlock()
	}
	return data, ok
}

// Has checks the cache first, then the backing store.
func (c *CachedStore) Has(h hash.Hash) bool {
	c.mu.Lock()
	_, ok := c.entries[h]
	c.mu.Unlock()
	if ok {
		return true
	}
	return c.inner.Has(h)
}

// Purge evicts every cached node that live reports dead. CachedStore.Sweep
// already purges the cache it is called on, but client-side caches layered
// over a shared backing store (the Figure 21 deployment) are not on the
// sweep path; a post-GC hook (version.Repo.OnGC) calls Purge on them so a
// reclaimed node cannot be resurrected from a stale client cache.
func (c *CachedStore) Purge(live LiveFunc) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for h := range c.entries {
		if !live(h) {
			c.evict(h)
			n++
		}
	}
	return n
}

// CacheStats returns local cache hits and misses.
func (c *CachedStore) CacheStats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// insert adds h→data to the cache and evicts LRU entries past the byte
// bound. Caller holds c.mu.
func (c *CachedStore) insert(h hash.Hash, data []byte) {
	if c.maxB <= 0 {
		return
	}
	if el, ok := c.entries[h]; ok {
		c.order.MoveToFront(el)
		return
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	el := c.order.PushFront(&cacheEntry{h: h, data: cp})
	c.entries[h] = el
	c.bytes += int64(len(cp))
	for c.bytes > c.maxB && c.order.Len() > 1 {
		back := c.order.Back()
		ent := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.entries, ent.h)
		c.bytes -= int64(len(ent.data))
	}
}
