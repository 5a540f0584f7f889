package store

import (
	"sync/atomic"

	"repro/internal/hash"
)

// ReadCounter is the store-stat surface behind every index-honesty
// assertion in the repository: a monotone count of node fetches (Get
// calls) the store has served. The conformance suites (indextest's
// range-pruning case, plantest's planner-honesty battery) and the bench
// experiments all measure "how many nodes did this operation touch"
// through it, so production measurements and test assertions share one
// counter definition instead of each test package growing its own.
type ReadCounter interface {
	// NodeReads returns the number of Get calls served so far.
	NodeReads() int64
}

// NodeReads reports s's read count when the store (or a wrapper) exposes
// one.
func NodeReads(s Store) (int64, bool) {
	if rc, ok := s.(ReadCounter); ok {
		return rc.NodeReads(), true
	}
	return 0, false
}

// CountingStore wraps an inner store and counts node reads — the
// instrumentation layer the honesty assertions wrap any backend in.
// Counting only Get keeps the accounting aligned with what the paper's
// node-access analysis measures: one fetch per node visit on a cold path.
// Has is not counted: existence probes do not transfer node payloads.
//
// Everything but Get comes from the embedded Wrapper, so a CountingStore
// keeps every capability of the inner store — over a DiskStore it still
// persists branch heads, runs concurrent GC and reports DiskUsage.
type CountingStore struct {
	Wrapper
	reads atomic.Int64
}

// NewCountingStore wraps inner in a read counter starting at zero.
func NewCountingStore(inner Store) *CountingStore {
	return &CountingStore{Wrapper: NewWrapper(inner)}
}

// NodeReads returns the number of Get calls served since construction.
func (c *CountingStore) NodeReads() int64 { return c.reads.Load() }

// Get counts the fetch and forwards it.
func (c *CountingStore) Get(h hash.Hash) ([]byte, bool) {
	c.reads.Add(1)
	return c.inner.Get(h)
}
