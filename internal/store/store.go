// Package store provides the content-addressed node storage shared by every
// index structure in this repository. Nodes are immutable byte strings keyed
// by the SHA-256 digest of their contents, which makes copy-on-write,
// page-level deduplication and tamper evidence natural: writing the same
// node twice stores it once, and any mutation produces a new key.
//
// Every implementation keeps byte- and node-level accounting so the
// storage experiments (Figures 1 and 14–18 of the paper) can report both the
// deduplicated footprint (unique bytes) and the raw footprint (all bytes
// ever written, as if every version were stored separately).
//
// Two backends and one cache layer share the Store contract (verified by
// the conformance suite in the storetest subpackage):
//
//	MemStore      in-memory map split into lock-striped shards with atomic
//	              stats, so concurrent index updates touch disjoint locks
//	DiskStore     append-only segment files with an in-memory directory,
//	              crash-safe via a rebuild-on-open scan
//	CachedStore   bounded LRU layered over either of the above
//
// Wrappers (CachedStore, CountingStore, faultstore.FaultStore) embed
// Wrapper, which forwards every optional capability to the wrapped store,
// and override only the methods they change.
//
// Open selects a backend by name ("mem", "disk") plus an optional cache
// layer; cmd/siribench threads the same selection through every
// experiment via its -store flag.
package store

import (
	"fmt"

	"repro/internal/hash"
)

// Store is a content-addressed node store. Implementations must be safe for
// concurrent use.
type Store interface {
	// Put stores data under its SHA-256 digest and returns the digest.
	// Storing identical content twice is a deduplicated no-op.
	Put(data []byte) hash.Hash
	// Get returns the content stored under h. The returned slice must not
	// be modified by the caller.
	//
	// No-copy contract: backends serve Get without copying whenever the
	// stored bytes are immutable for the store's lifetime — MemStore and
	// CachedStore return the resident buffer directly (DiskStore reads
	// flushed records into a fresh buffer by necessity). Nodes are
	// content-addressed and never rewritten, so the returned bytes stay
	// valid until the node is reclaimed by a sweep; the decoded-node
	// caches in the index packages rely on this to alias key and value
	// slices straight into the stored encoding instead of copying per
	// decode (see the internal/codec aliasing rules). The GC
	// purge hooks (version.Repo.OnGC) exist to drop those aliases when a
	// sweep reclaims nodes.
	Get(h hash.Hash) ([]byte, bool)
	// Has reports whether h is present without fetching the content.
	Has(h hash.Hash) bool
	// Stats returns a snapshot of the accounting counters.
	Stats() Stats
}

// Stats captures store accounting. RawBytes/RawNodes count every Put as if
// nothing were shared (the paper's "Raw" storage series); UniqueBytes and
// UniqueNodes count the deduplicated footprint.
type Stats struct {
	UniqueNodes int64 // distinct nodes resident
	UniqueBytes int64 // bytes of distinct nodes resident
	RawNodes    int64 // total Put calls, duplicates included
	RawBytes    int64 // total bytes passed to Put, duplicates included
	DedupHits   int64 // Put calls that found existing content
	Gets        int64 // Get calls served
	Misses      int64 // Get calls that found nothing
}

// String renders the counters in a compact single line for logs.
func (s Stats) String() string {
	return fmt.Sprintf("unique=%d nodes/%d B raw=%d nodes/%d B dedupHits=%d gets=%d misses=%d",
		s.UniqueNodes, s.UniqueBytes, s.RawNodes, s.RawBytes, s.DedupHits, s.Gets, s.Misses)
}
