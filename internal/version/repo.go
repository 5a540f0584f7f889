package version

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/store"
)

// Loader reconstructs a read view of an index class from a committed root.
// Each class registers one as a closure over its structural configuration,
// mirroring forkbase.Loader, e.g.
//
//	repo.RegisterLoader("MPT", func(s store.Store, root hash.Hash, _ int) (core.Index, error) {
//	    return mpt.Load(s, root), nil
//	})
type Loader func(s store.Store, root hash.Hash, height int) (core.Index, error)

// Common errors.
var (
	// ErrUnknownCommit reports an ID absent from the repo's commit log.
	ErrUnknownCommit = errors.New("version: unknown commit")
	// ErrUnknownBranch reports a branch name with no head.
	ErrUnknownBranch = errors.New("version: unknown branch")
	// ErrNoLoader reports a checkout of a class with no registered Loader.
	ErrNoLoader = errors.New("version: no loader registered for index class")
	// ErrHeadNotRetained reports a GC whose retained set omits a current
	// branch head. Under concurrent writers this is often a benign race —
	// the head advanced after the caller chose the set — so callers may
	// recompute and retry, or use GCRetainRecent, which chooses the set
	// atomically inside the pass.
	ErrHeadNotRetained = errors.New("version: branch head not in the retained set")
	// ErrCommitRaced reports a commit whose version lost nodes to a
	// concurrent GC pass: the index was flushed before the pass's write
	// barrier was armed, no retained version reached it, and the sweep
	// reclaimed it. The store is consistent — the commit was not recorded
	// — and the fix is to redo the mutation from a fresh checkout.
	ErrCommitRaced = errors.New("version: commit raced a GC pass; redo the mutation from a fresh checkout")
	// ErrHeadMoved reports a guarded commit (CommitOnto, and every
	// CommitRetry attempt) whose expected parent is no longer the branch
	// head: another writer advanced, created or moved the branch after this
	// one checked it out. Nothing was recorded — committing anyway would
	// silently drop the other writer's version — and the fix is to redo the
	// mutation from a fresh checkout.
	ErrHeadMoved = errors.New("version: branch head moved; redo the mutation from a fresh checkout")
)

// Repo is a commit log plus named branches over one content-addressed
// store. All methods are safe for concurrent use with each other,
// including GC: on stores with the write-barrier capability
// (store.BarrierStore — MemStore, DiskStore and the wrappers over them) a
// GC pass runs concurrently with commits, checkouts and reads, pausing
// them only for the pass's brief bookkeeping sections. Readers of versions
// the retention policy might drop must hold a Pin for the duration of the
// read (CheckoutPinned); see the package documentation's safety contract.
//
// The log is an in-memory view; the durable truth is the store itself,
// where every commit lives as a content-addressed node. Branch heads — the
// one piece of mutable state — are additionally persisted through the
// store's MetaStore capability on every head move, and NewRepo resumes
// them automatically when it finds persisted heads, so reopening a
// DiskStore-backed repo restores its branches without the caller recording
// head IDs externally. ResumeBranch remains available for stores without
// metadata support (and for attaching to heads recorded elsewhere).
type Repo struct {
	s store.Store

	mu       sync.RWMutex
	loaders  map[string]Loader
	commits  map[hash.Hash]Commit
	branches map[string]hash.Hash
	gcHooks  []func(live store.LiveFunc)
	now      func() time.Time
	// heads is a copy of the branch heads, republished under mu after
	// every head move, so Head never waits behind a commit holding mu
	// through its head persistence (an fsync on DiskStore).
	heads atomic.Pointer[map[string]Commit]

	// pins maps commit ID → refcounted reader lease (see pin.go). Guarded
	// by mu.
	pins map[hash.Hash]*pinEntry
	// gcPass is non-nil while a concurrent GC pass is between its initial
	// snapshot and its final hook-firing section; gcCond is broadcast when
	// the pass retires. Both guarded by mu. gcMu serializes passes.
	gcPass *gcPass
	gcCond *sync.Cond
	gcMu   sync.Mutex
}

// headsMetaKey is the well-known metadata key branch heads persist under.
const headsMetaKey = "version/branch-heads"

// NewRepo returns a repo over s. Register a Loader per index class before
// calling Checkout or GC on commits of that class. When s persists branch
// heads (see store.MetaStore), every branch recorded by a previous Repo
// over the same store is resumed automatically; heads whose commit blobs
// are gone (a GC dropped the branch's history) are skipped.
func NewRepo(s store.Store) *Repo {
	r := &Repo{
		s:        s,
		loaders:  make(map[string]Loader),
		commits:  make(map[hash.Hash]Commit),
		branches: make(map[string]hash.Hash),
		now:      time.Now,
		pins:     make(map[hash.Hash]*pinEntry),
	}
	r.gcCond = sync.NewCond(&r.mu)
	r.publishHeadsLocked()
	for name, head := range loadHeads(s) {
		// Resume without re-persisting: the heads just came from the
		// store, and rewriting the record once per branch would open a
		// crash window in which not-yet-resumed branches vanish from it.
		_ = r.resumeBranch(name, head, false) // unreadable head: skip the branch
	}
	return r
}

// Store returns the content-addressed store the repo records commits in.
func (r *Repo) Store() store.Store { return r.s }

// SetClock replaces the wall-clock source stamped into commit Time fields.
// Commit IDs hash the timestamp, so pinning the clock makes a deterministic
// workload produce byte-identical commit IDs across runs — what replay
// tooling and the fault-soak convergence tests need. The default is
// time.Now.
func (r *Repo) SetClock(now func() time.Time) {
	r.mu.Lock()
	r.now = now
	r.mu.Unlock()
}

// RegisterLoader installs the checkout constructor for one index class
// (keyed by core.Index.Name). Registering a class twice replaces the loader.
func (r *Repo) RegisterLoader(class string, l Loader) {
	r.mu.Lock()
	r.loaders[class] = l
	r.mu.Unlock()
}

// Commit records idx's current version as a new commit on branch, advancing
// (or creating) the branch head, and returns the stored commit. The commit's
// parent is the previous head, its class is idx.Name(), and its height is
// taken from the index when the class exposes one (POS-Tree, MVMB+-Tree).
//
// A commit may overlap a GC pass. If the version was flushed before the
// pass's write barrier was armed and nothing retained reaches it, Commit
// waits for the pass's sweep to finish and then reports ErrCommitRaced if
// the version's pages were reclaimed; redo the mutation from a fresh
// checkout. Versions flushed after the barrier was armed — every mutation
// that started after the pass did — commit without waiting.
func (r *Repo) Commit(branch string, idx core.Index, message string) (Commit, error) {
	return r.CommitMeta(branch, idx, message, nil)
}

// CommitMeta is Commit with opaque application metadata attached to the
// recorded commit (see Commit.Meta). The ingest front-end commits its
// merges through it, stamping the WAL high-water mark the merge covers so
// a crash-and-replay can skip already-merged records. meta is copied into
// the commit encoding; nil and empty both record "no metadata". A meta
// produced by EncodeRootRefs makes this a multi-root commit: every
// referenced root clears the GC admission gate and is marked and scrubbed
// alongside the primary (see RootRef).
func (r *Repo) CommitMeta(branch string, idx core.Index, message string, meta []byte) (Commit, error) {
	return r.commit(branch, idx, message, meta, nil)
}

// CommitOnto is CommitMeta guarded by the branch head the version was
// derived from: it records the commit only while parent is still the head
// of branch (hash.Null: while the branch does not exist), and otherwise
// fails with ErrHeadMoved, recording nothing. This compare-and-swap on the
// head is what makes a read-modify-write of a branch linearizable; the
// CommitRetry loop commits every attempt through it.
func (r *Repo) CommitOnto(branch string, parent hash.Hash, idx core.Index, message string, meta []byte) (Commit, error) {
	return r.commit(branch, idx, message, meta, &parent)
}

// commit implements CommitMeta and CommitOnto; a nil parent skips the head
// check.
func (r *Repo) commit(branch string, idx core.Index, message string, meta []byte, parent *hash.Hash) (Commit, error) {
	if branch == "" {
		return Commit{}, errors.New("version: empty branch name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	head, hasHead := r.branches[branch]
	if parent != nil && head != *parent {
		return Commit{}, fmt.Errorf("%w: %q is at %v, expected %v", ErrHeadMoved, branch, head, *parent)
	}
	// Probe the store's write path before anything moves: a degraded store
	// (disk full — store.ErrNoSpace — or any other flush failure) rejects
	// the commit with the typed cause while the branch head, the commit log
	// and every reader stay exactly where they were. The staged index nodes
	// the caller already Put are parked in the store's memory and land on
	// disk when the store heals, so retrying the same commit after a heal
	// succeeds with no data loss.
	if err := store.Flush(r.s); err != nil {
		return Commit{}, fmt.Errorf("version: commit rejected, store write path degraded: %w", err)
	}
	c := Commit{
		Root:    idx.RootHash(),
		Class:   idx.Name(),
		Message: message,
		Time:    r.now().UnixNano(),
	}
	if len(meta) > 0 {
		c.Meta = append([]byte(nil), meta...)
	}
	if h, ok := idx.(interface{ Height() int }); ok {
		c.Height = h.Height()
	}
	if hasHead {
		c.Parents = []hash.Hash{head}
	}
	if err := r.gcAdmitCommitLocked(c.Root); err != nil {
		return Commit{}, err
	}
	// A multi-root commit (RootRefs in the Meta trailer) must clear the
	// GC gate for every tree it records, not just the primary — a swept
	// secondary root would otherwise ride into the log inside a "valid"
	// commit.
	for _, ref := range MetaRoots(c) {
		if err := r.gcAdmitCommitLocked(ref.Root); err != nil {
			return Commit{}, err
		}
	}
	c.ID = r.s.Put(encodeCommit(c))
	r.commits[c.ID] = c
	r.branches[branch] = c.ID
	if err := r.persistHeadsLocked(); err != nil {
		// The commit blob is stored and the in-memory head advanced, but
		// durability of the head move failed — the caller must know, or a
		// clean process exit silently rolls the branch back on reopen.
		return c, fmt.Errorf("version: commit recorded but branch head not persisted: %w", err)
	}
	return c, nil
}

// Head returns the commit a branch points at. It takes no lock, so it
// does not wait for a concurrent commit or GC pass.
func (r *Repo) Head(branch string) (Commit, bool) {
	c, ok := (*r.heads.Load())[branch]
	return c, ok
}

// publishHeadsLocked republishes the branch heads Head reads. Caller holds
// r.mu (or owns r exclusively).
func (r *Repo) publishHeadsLocked() {
	heads := make(map[string]Commit, len(r.branches))
	for name, id := range r.branches {
		if c, ok := r.commits[id]; ok {
			heads[name] = c
		}
	}
	r.heads.Store(&heads)
}

// Branch creates branch name at the known commit id, or moves it there if
// it already exists — checkout-and-fork in one step, since a later
// Repo.Commit on the new branch descends from id.
func (r *Repo) Branch(name string, id hash.Hash) error {
	if name == "" {
		return errors.New("version: empty branch name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.commits[id]; !ok {
		return fmt.Errorf("%w: %v", ErrUnknownCommit, id)
	}
	r.branches[name] = id
	return r.persistHeadsLocked()
}

// DeleteBranch removes a branch head. The commits it pointed at remain in
// the log until a GC drops them. A non-nil error means the in-memory
// delete happened but the persisted head record could not be updated.
func (r *Repo) DeleteBranch(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.branches, name)
	return r.persistHeadsLocked()
}

// Branches lists the branch names in sorted order.
func (r *Repo) Branches() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.branches))
	for name := range r.branches {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the commit stored under id, if the log knows it.
func (r *Repo) Lookup(id hash.Hash) (Commit, bool) {
	r.mu.RLock()
	c, ok := r.commits[id]
	r.mu.RUnlock()
	return c, ok
}

// Checkout reconstructs a read view of the commit's index version through
// the Loader registered for its class.
func (r *Repo) Checkout(id hash.Hash) (core.Index, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.commits[id]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownCommit, id)
	}
	return r.checkoutLocked(c)
}

// CheckoutBranch checks out the head of a branch.
func (r *Repo) CheckoutBranch(name string) (core.Index, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	id, ok := r.branches[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownBranch, name)
	}
	return r.checkoutLocked(r.commits[id])
}

// checkoutLocked loads c's index view. Caller holds r.mu (read or write).
func (r *Repo) checkoutLocked(c Commit) (core.Index, error) {
	l, ok := r.loaders[c.Class]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoLoader, c.Class)
	}
	idx, err := l(r.s, c.Root, c.Height)
	if err != nil {
		return nil, fmt.Errorf("version: checkout %s: %w", c, err)
	}
	return idx, nil
}

// Log returns a branch's history, newest first, following first parents.
// The walk stops at a history's first commit or at the retention boundary a
// past GC left (a parent ID no longer in the log).
func (r *Repo) Log(branch string) ([]Commit, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	id, ok := r.branches[branch]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownBranch, branch)
	}
	var out []Commit
	for {
		c, ok := r.commits[id]
		if !ok {
			return out, nil // shallow boundary
		}
		out = append(out, c)
		if len(c.Parents) == 0 {
			return out, nil
		}
		id = c.Parents[0]
	}
}

// ResumeBranch rebuilds the log for one branch from a head commit ID by
// reading the commit chain (all parents, breadth-first) out of the store,
// then points branch name at it. It is how a process reattaches to a
// DiskStore-backed history after a restart: persist the head ID anywhere,
// reopen the store, resume. Ancestors whose blobs a GC already swept are
// skipped, leaving the same shallow boundary the GC left.
func (r *Repo) ResumeBranch(name string, head hash.Hash) error {
	return r.resumeBranch(name, head, true)
}

// resumeBranch is ResumeBranch with persistence optional: NewRepo's
// auto-resume loop reads heads out of the store and must not rewrite the
// record per branch (a crash mid-loop would drop the rest).
func (r *Repo) resumeBranch(name string, head hash.Hash, persist bool) error {
	if name == "" {
		return errors.New("version: empty branch name")
	}
	first, err := ReadCommit(r.s, head)
	if err != nil {
		return fmt.Errorf("version: resume %q: %w", name, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	queue := []Commit{first}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		if _, seen := r.commits[c.ID]; seen {
			continue
		}
		r.commits[c.ID] = c
		for _, p := range c.Parents {
			if _, seen := r.commits[p]; seen {
				continue
			}
			pc, err := ReadCommit(r.s, p)
			if err != nil {
				continue // swept ancestor: shallow boundary
			}
			queue = append(queue, pc)
		}
	}
	r.branches[name] = head
	if !persist {
		r.publishHeadsLocked()
		return nil
	}
	return r.persistHeadsLocked()
}

// OnGC registers a hook invoked at the end of every GC pass that swept —
// including a pass whose sweep failed partway, so caches drop whatever the
// partial sweep did reclaim — with the pass's liveness predicate. It is the eager-eviction integration point for
// caches holding decoded or copied node state that a sweep cannot see: the
// per-index decoded-node caches (core.NodeCache.EvictIf) and client-side
// store.CachedStore layers (CachedStore.Purge). Hooks run while the repo's
// lock is held, so they must not call back into the Repo.
func (r *Repo) OnGC(hook func(live store.LiveFunc)) {
	r.mu.Lock()
	r.gcHooks = append(r.gcHooks, hook)
	r.mu.Unlock()
}

// persistHeadsLocked writes the branch map through the store's MetaStore
// capability, skipping stores without one (the in-memory view remains
// authoritative for the process lifetime either way). A write failure on a
// capable store is returned: heads are the one mutable pointer in the
// system, and losing one silently rolls a branch back on the next reopen.
// Every head move ends here: Head sees the move once this returns,
// whether or not the store could persist it. Caller holds r.mu.
func (r *Repo) persistHeadsLocked() error {
	defer r.publishHeadsLocked()
	if _, ok := r.s.(store.MetaStore); !ok {
		return nil
	}
	// Push buffered node writes to the OS before the head record lands:
	// otherwise a process crash between the two can persist a head whose
	// commit blob or pages were still sitting in a write buffer — a durable
	// pointer into nothing. With the flush ordered first, a crash loses at
	// worst the head move, never the data under it.
	if err := store.Flush(r.s); err != nil {
		return fmt.Errorf("version: flush before persisting heads: %w", err)
	}
	names := make([]string, 0, len(r.branches))
	for name := range r.branches {
		names = append(names, name)
	}
	sort.Strings(names)
	w := codec.NewWriter(16 + len(names)*48)
	w.Uvarint(uint64(len(names)))
	for _, name := range names {
		w.LenBytes([]byte(name))
		id := r.branches[name]
		w.Bytes32(id[:])
	}
	if err := store.SetMeta(r.s, headsMetaKey, w.Bytes()); err != nil {
		return fmt.Errorf("version: persist branch heads: %w", err)
	}
	return nil
}

// loadHeads reads the persisted branch map, returning nil when the store
// has no metadata capability, no persisted heads, or a corrupt record (a
// bad head record must not wedge the open; affected branches can still be
// resumed manually).
func loadHeads(s store.Store) map[string]hash.Hash {
	data, ok, err := store.GetMeta(s, headsMetaKey)
	if err != nil || !ok {
		return nil
	}
	rd := codec.NewReader(data)
	n, err := rd.Uvarint()
	if err != nil {
		return nil
	}
	out := make(map[string]hash.Hash, n)
	for i := uint64(0); i < n; i++ {
		name, err := rd.LenBytes()
		if err != nil {
			return nil
		}
		hb, err := rd.Bytes32()
		if err != nil {
			return nil
		}
		out[string(name)] = hash.MustFromBytes(hb)
	}
	if rd.Done() != nil {
		return nil
	}
	return out
}
