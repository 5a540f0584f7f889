package store

import "sync/atomic"

// counters holds the Stats fields as atomics so concurrent backends
// (MemStore, DiskStore) can account without funnelling every operation
// through one lock. Snapshots taken while writers are active are
// per-counter consistent; cross-counter invariants (UniqueBytes ≤ RawBytes)
// hold at rest.
type counters struct {
	uniqueNodes atomic.Int64
	uniqueBytes atomic.Int64
	rawNodes    atomic.Int64
	rawBytes    atomic.Int64
	dedupHits   atomic.Int64
	gets        atomic.Int64
	misses      atomic.Int64
}

// snapshot materializes the counters as a Stats value.
func (c *counters) snapshot() Stats {
	return Stats{
		UniqueNodes: c.uniqueNodes.Load(),
		UniqueBytes: c.uniqueBytes.Load(),
		RawNodes:    c.rawNodes.Load(),
		RawBytes:    c.rawBytes.Load(),
		DedupHits:   c.dedupHits.Load(),
		Gets:        c.gets.Load(),
		Misses:      c.misses.Load(),
	}
}
