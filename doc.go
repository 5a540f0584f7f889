// Package repro is a from-scratch Go reproduction of "Analysis of Indexing
// Structures for Immutable Data" (Yue et al., SIGMOD 2020): the three SIRI
// index structures — Merkle Patricia Trie, Merkle Bucket Tree and
// Pattern-Oriented-Split Tree — plus the MVMB+-Tree baseline, a Prolly Tree,
// a Forkbase-style client/server engine, the paper's workload generators,
// and a benchmark harness regenerating every table and figure of the
// evaluation. Node storage is pluggable: a lock-striped in-memory backend
// and an append-only on-disk backend share one content-addressed store
// contract, selectable per experiment via siribench's -store flag.
//
// Writes follow a stage → commit → batch-flush pipeline: batch updates
// mutate decoded in-memory nodes (MPT on a dirty overlay, MBT and
// POS-Tree through a staged writer), the nodes reachable from the final
// root are encoded and hashed exactly once at commit, and the whole batch
// lands in the store through one store.Batcher.PutBatch call. Reads go
// through a per-index decoded-node LRU so hot upper levels are parsed
// once. See README.md ("The write path") for details, the store backend
// matrix, and the layout tour.
//
// The query surface is point lookups (Get), full scans (Iterate) and
// ordered bounded scans: core.Ranger's Range(lo, hi, fn) visits the
// half-open interval [lo, hi) in ascending key order with nil bounds
// unbounded. All five indexes implement it — the ordered structures by
// pruning subtrees outside the bounds (O(log N + result) node reads), the
// hash-partitioned MBT by clipping every bucket and merging — and
// core.RangeOf falls back to a filtered sorted Iterate for any foreign
// index. The behavioural contract for all of this is pinned by the shared
// conformance suite in core/indextest, run for every index over every
// store backend.
package repro
