// Package version adds version management on top of the immutable indexes:
// a commit log, named branches, and retention-driven garbage collection.
//
// The paper's central storage claim (§4.2, §5.4.2) is that immutable
// indexes make retaining many versions cheap, because versions share
// unmodified pages through the content-addressed store. This package closes
// the lifecycle loop on that claim: it names versions (commits), organizes
// them into histories (branches), and — the part the paper leaves to
// systems like Forkbase — bounds space by deleting the pages only
// unretained versions reach.
//
// # Commits
//
// A Commit records one index version: the Merkle root, the parent commit
// IDs, the index class that produced the root (so the version can be
// re-opened later), the tree height at commit time (POS-Tree and the
// MVMB+-Tree need it to Load), and metadata (message, wall-clock time).
// Commits are themselves content-addressed: the canonical encoding of the
// commit is stored as a node in the same store as the index pages, and its
// SHA-256 digest is the commit ID. A commit therefore survives anything the
// index pages survive — including a DiskStore close and reopen — and
// ResumeBranch can rebuild a Repo's log from a head ID alone.
//
// # Branches
//
// A branch is a named mutable head over the immutable commit graph.
// Repo.Commit advances the named branch (creating it on first use);
// Branch creates or moves a branch to any known commit; Checkout
// reconstructs a read view of any commit through the Loader registered for
// its index class.
//
// Repo.Commit moves the head unconditionally. A writer that checked the
// head out, derived a successor and commits it must not use it when other
// writers share the branch: one of two racing writers would silently drop
// the other's commit. CommitOnto is the compare-and-swap form — it commits
// only while the expected parent is still the head and otherwise fails
// with ErrHeadMoved, recording nothing — and CommitRetry runs the whole
// read-modify-write through it, redoing the mutation from a fresh checkout
// until it wins or its retry budget runs out, so concurrent writers on one
// branch are linearizable.
//
// # Garbage collection
//
// GC(retain...) is mark-and-sweep over the content-addressed store. Mark:
// the union of every retained commit's reachable node set (via
// core.Reachable) plus the retained commit blobs themselves. Sweep: every
// other node in the store is deleted through the store's Sweeper capability
// — map deletes for the in-memory backends, live-set segment compaction for
// DiskStore. Commits outside the retained set are dropped from the log;
// retained commits keep their Parents fields, so history becomes shallow at
// the retention boundary, exactly like a shallow git clone.
//
// A pass is concurrent, not stop-the-world. The repository lock is held
// only for three short windows: snapshotting the retained set and arming
// the store's write barrier at mark start, pruning the log when the mark
// finishes, and firing OnGC hooks at the end. The mark walk and the store
// sweep — the two phases whose cost grows with history size — run without
// the lock, racing live commits, checkouts and reads.
//
// Three mechanisms make that race safe:
//
//   - Write barrier (store.BarrierStore): while a pass is marking, every
//     store write records its digest in the pass's barrier, and the sweep
//     treats barrier-recorded nodes as live. Arming the barrier
//     synchronizes with in-flight batch writes, so a commit's flush is
//     atomic with respect to mark start: it lands entirely before the mark
//     (and is either reachable from a retained head or caught by the
//     commit gate below) or has every node recorded.
//   - Commit gate: Repo.Commit admits a new version mid-pass only when the
//     pass can prove its nodes survive the sweep (barrier-covered, or
//     rooted in the marked live set). A version flushed before the barrier
//     armed that is not covered waits for the sweep and then fails with
//     ErrCommitRaced — the caller retries from a fresh checkout. The gate
//     also walks mid-pass commits whose versions predate the barrier, so
//     children inheriting their pages stay safe.
//   - Reader pins: CheckoutPinned / CheckoutBranchPinned return a Pin that
//     keeps the commit and its whole version tree out of every sweep until
//     Release, even when retention would drop it. Pins are refcounted;
//     Release is idempotent.
//
// # Safety contract
//
// On a store with the BarrierStore capability (MemStore, DiskStore and the
// wrappers over them) GC runs concurrently with everything: Commit, Put/PutBatch on checked-out
// indexes, Checkout, and reads. Callers need only honor two rules:
//
//   - Retry ErrCommitRaced: a commit whose version was flushed before the
//     pass began marking, and which nothing protects, is rejected after the
//     sweep. Re-checkout the branch and reapply the mutation.
//   - Pin what you read, pin what you build on. A long-lived read view of a
//     commit that retention may drop must come from CheckoutPinned /
//     CheckoutBranchPinned; an unpinned view of a dropped version loses its
//     nodes mid-read (core.ErrMissingNode). Likewise a mutator that
//     checks out a base version, edits, and commits later must pin the base
//     unless it is guaranteed to stay retained (e.g. more commits than the
//     retention window could land in between): the commit gate verifies the
//     novel nodes of the new version, not pages inherited from a base that
//     was itself collected.
//
// Stores without the barrier capability keep the old stop-the-world rule:
// the pass holds the repository lock end to end, so concurrent Repo calls
// block for the duration, and external writers (raw store.Put outside any
// Repo-managed commit) must quiesce during a GC.
//
// Failure semantics: a sweep error does not wedge the repository. The log
// prune and the OnGC hooks still happen (hooks receive the pass's live
// predicate either way), the barrier is disarmed, and the store is left
// merely over-retained — a later pass reclaims what the failed sweep left
// behind. GC returns the sweep error wrapped, with the pass's stats.
package version
