package version

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/store"
)

// GCStats is the accounting of one GC pass: the marked live set and the
// store's sweep result.
type GCStats struct {
	// RetainedCommits is how many distinct commits were kept.
	RetainedCommits int
	// DroppedCommits is how many commits left the log.
	DroppedCommits int
	// LiveNodes and LiveBytes measure the marked set: the union of every
	// retained version's reachable pages plus the commit blobs — the
	// deduplicated footprint byte(P1 ∪ … ∪ Pk) of §4.2, now enforced as
	// the store's entire contents.
	LiveNodes int
	LiveBytes int64
	// BarrierNodes is how many distinct digests landed in the pass's write
	// barrier — the write traffic that overlapped the pass and was kept
	// live unconditionally. Zero on stores without the barrier capability.
	BarrierNodes int
	// Store is the sweep accounting from the store backend, including
	// DiskStore segment compactions.
	Store store.SweepStats
}

// String renders the stats in a compact single line for logs.
func (g GCStats) String() string {
	return fmt.Sprintf("retained=%d commits dropped=%d live=%d nodes/%d B barrier=%d store{%s}",
		g.RetainedCommits, g.DroppedCommits, g.LiveNodes, g.LiveBytes, g.BarrierNodes, g.Store)
}

// gcPass is the shared state of one concurrent GC pass, published in
// Repo.gcPass for the pass's lifetime.
type gcPass struct {
	// barrier records every digest written to the store since mark start;
	// everything in it is unconditionally live for this pass.
	barrier *store.Barrier
	// live is the marked set (digest → encoded size). Only the GC
	// goroutine writes it, and only before the sweeping transition; the
	// transition happens under r.mu, so the commit gate's reads of the
	// then-immutable map are ordered after every write.
	live map[hash.Hash]int
	// walked records the commit IDs whose versions have been marked into
	// live. Only the GC goroutine touches it.
	walked map[hash.Hash]bool
	// sweeping flips under r.mu in the same critical section that prunes
	// the log; from then until the pass retires, commits of uncovered
	// roots wait the pass out (see gcAdmitCommitLocked).
	sweeping bool
}

// covered reports whether a version root is safe under this pass: marked
// live, or written since the barrier was armed.
func (p *gcPass) covered(root hash.Hash) bool {
	if _, ok := p.live[root]; ok {
		return true
	}
	return p.barrier != nil && p.barrier.Has(root)
}

// rootsCovered reports whether every root a commit carries — the primary
// plus any Meta-trailer RootRefs — is covered by this pass. A multi-root
// commit is only safe when all of its trees are.
func (p *gcPass) rootsCovered(c Commit) bool {
	if !c.Root.IsNull() && !p.covered(c.Root) {
		return false
	}
	for _, ref := range MetaRoots(c) {
		if !ref.Root.IsNull() && !p.covered(ref.Root) {
			return false
		}
	}
	return true
}

// GC reclaims every store node unreachable from the retained commits:
// mark computes the union of the retained versions' reachable node sets
// (plus the retained commit blobs, pinned versions, and everything written
// while the pass ran), sweep hands the complement to the store's Sweeper
// capability. Commits outside the retained set are dropped from the log;
// every branch head must be among the retained commits at the moment the
// pass starts (ErrHeadNotRetained otherwise — delete the branch first if
// its history should go, or use GCRetainRecent to choose the set
// atomically under concurrent writers).
//
// On stores with the write-barrier capability (MemStore, DiskStore, and
// the wrappers over them) the pass runs concurrently with commits, checkouts and reads:
// the repo lock is held only to snapshot the retained set, to prune the
// log, and to fire the OnGC hooks. Stores without the capability get the
// old stop-the-world pass under the lock. See the package documentation
// for what callers may do mid-pass.
//
// A sweep failure is reported, but the pass still converges: the log was
// already pruned, and the OnGC hooks still fire with the pass's predicate,
// so no cache or log entry survives pointing at nodes the partial sweep
// reclaimed. A later GC retries the reclamation.
func (r *Repo) GC(retain ...Commit) (GCStats, error) {
	if len(retain) == 0 {
		return GCStats{}, errors.New("version: GC requires at least one retained commit")
	}
	return r.gcRun(func() ([]Commit, map[hash.Hash]bool, error) {
		keep := make(map[hash.Hash]bool, len(retain))
		seeds := make([]Commit, 0, len(retain))
		for _, c := range retain {
			cur, ok := r.commits[c.ID]
			if !ok {
				return nil, nil, fmt.Errorf("%w: retained %v", ErrUnknownCommit, c.ID)
			}
			if !keep[cur.ID] {
				keep[cur.ID] = true
				seeds = append(seeds, cur)
			}
		}
		for name, head := range r.branches {
			if !keep[head] {
				return nil, nil, fmt.Errorf("%w: branch %q head %x (delete the branch or retain its head)",
					ErrHeadNotRetained, name, head[:6])
			}
		}
		return seeds, keep, nil
	})
}

// GCRetainRecent runs a GC pass retaining the newest n commits of every
// branch (following first parents). The retained set is computed inside
// the pass's initial critical section, so it can never race a concurrent
// writer advancing a head — the way to express "keep the last n" on a live
// repo.
func (r *Repo) GCRetainRecent(n int) (GCStats, error) {
	if n < 1 {
		return GCStats{}, errors.New("version: GCRetainRecent requires n >= 1")
	}
	return r.gcRun(func() ([]Commit, map[hash.Hash]bool, error) {
		if len(r.branches) == 0 {
			return nil, nil, errors.New("version: GCRetainRecent: repo has no branches")
		}
		keep := make(map[hash.Hash]bool)
		var seeds []Commit
		for _, head := range r.branches {
			id := head
			for i := 0; i < n; i++ {
				c, ok := r.commits[id]
				if !ok {
					break // shallow boundary left by an earlier GC
				}
				if !keep[id] {
					keep[id] = true
					seeds = append(seeds, c)
				}
				if len(c.Parents) == 0 {
					break
				}
				id = c.Parents[0]
			}
		}
		return seeds, keep, nil
	})
}

// gcRun drives one pass. collect runs under r.mu and returns the seed
// commits to mark plus the retained-ID set.
//
// The pass structure, and why each step is safe against live traffic:
//
//  1. Lock A: collect the retained set, arm the store's write barrier,
//     publish the pass, snapshot pins and loaders. From here on, every
//     node written to the store is recorded in the barrier and treated as
//     live, so mutations started after this instant cannot lose data to
//     the pass.
//  2. Mark, unlocked: walk the retained and pinned versions into the live
//     set while commits, checkouts and reads proceed.
//  3. Gate: re-check, under the lock, for commits that gained protection
//     while marking ran — a pin taken on a pre-barrier commit, a branch
//     reattached to one — and mark those too; repeat until a check finds
//     nothing new (the set of pre-barrier commits is finite and walked
//     monotonically, so this terminates). The final check, finding
//     nothing, prunes the log and flips the pass to sweeping in the same
//     critical section: after it, no checkout, pin or resume can reach a
//     doomed commit, because doomed commits are no longer in the log.
//  4. Sweep, unlocked: the backend unions the armed barrier into the live
//     predicate itself.
//  5. Lock C: fire the OnGC hooks (always — even on sweep failure, so
//     caches drop whatever a partial sweep reclaimed), retire the pass,
//     wake commits that waited on it, disarm the barrier.
func (r *Repo) gcRun(collect func() ([]Commit, map[hash.Hash]bool, error)) (GCStats, error) {
	r.gcMu.Lock()
	defer r.gcMu.Unlock()
	var st GCStats

	// Lock A.
	r.mu.Lock()
	seeds, keep, err := collect()
	if err != nil {
		r.mu.Unlock()
		return st, err
	}
	bar, err := store.ArmBarrier(r.s)
	if err != nil {
		if errors.Is(err, store.ErrNoBarrier) {
			// No barrier capability: run the stop-the-world fallback under
			// the lock we already hold.
			defer r.mu.Unlock()
			return r.gcStopTheWorldLocked(seeds, keep)
		}
		r.mu.Unlock()
		return st, fmt.Errorf("version: GC: %w", err)
	}
	pass := &gcPass{
		barrier: bar,
		live:    make(map[hash.Hash]int),
		walked:  make(map[hash.Hash]bool, len(seeds)),
	}
	r.gcPass = pass
	for id, e := range r.pins {
		if !keep[id] {
			seeds = append(seeds, e.c)
		}
	}
	loaders := make(map[string]Loader, len(r.loaders))
	for class, l := range r.loaders {
		loaders[class] = l
	}
	r.mu.Unlock()

	abort := func() {
		r.mu.Lock()
		r.gcPass = nil
		r.gcCond.Broadcast()
		r.mu.Unlock()
		store.DisarmBarrier(r.s)
	}

	// Mark, unlocked.
	for _, c := range seeds {
		if err := r.markCommit(pass, loaders, c); err != nil {
			abort()
			return st, err
		}
	}

	// Gate. protected reports whether a commit's version survives the
	// sweep without a walk: marked already, retained, or born entirely
	// inside the pass — blob AND root both barrier-covered, so its novel
	// pages are in the barrier and its inherited pages belong to an
	// already-protected parent. The root check matters: a version can be
	// flushed before the barrier armed and committed after, in which case
	// the commit blob is barrier-covered but the tree is not — skipping
	// the walk for such a commit would let the sweep eat a live version.
	protected := func(c Commit) bool {
		if keep[c.ID] || pass.walked[c.ID] {
			return true
		}
		return bar.Has(c.ID) && pass.rootsCovered(c)
	}
	for {
		r.mu.Lock()
		var extras []Commit
		for _, e := range r.pins {
			if !protected(e.c) {
				extras = append(extras, e.c)
			}
		}
		for _, head := range r.branches {
			if c, ok := r.commits[head]; ok && !protected(c) {
				extras = append(extras, c)
			}
		}
		for id, c := range r.commits {
			// A commit born during the pass (blob barrier-covered) whose
			// version was flushed before the barrier armed needs a walk even
			// after the branch moves past it: later commits inherit its
			// pages, and their own barrier coverage spans only their novel
			// nodes.
			if bar.Has(id) && !protected(c) {
				extras = append(extras, c)
			}
		}
		if len(extras) == 0 {
			for id, c := range r.commits {
				if protected(c) {
					continue
				}
				delete(r.commits, id)
				st.DroppedCommits++
			}
			pass.sweeping = true
			r.mu.Unlock()
			break
		}
		r.mu.Unlock()
		// The extras are finite across the whole loop: only versions
		// flushed before the barrier armed can be unprotected, and each
		// walk moves one of them into walked for good. Commits born after
		// the arm are always protected, so a busy writer cannot keep the
		// gate spinning.
		for _, c := range extras {
			if err := r.markCommit(pass, loaders, c); err != nil {
				abort()
				return st, err
			}
		}
	}

	st.RetainedCommits = len(keep)
	st.LiveNodes = len(pass.live)
	for _, sz := range pass.live {
		st.LiveBytes += int64(sz)
	}

	// Sweep, unlocked. The backend unions the armed barrier itself, so the
	// predicate here is the pure mark set.
	sw, sweepErr := store.Sweep(r.s, func(h hash.Hash) bool {
		_, ok := pass.live[h]
		return ok
	})
	st.Store = sw

	// Lock C.
	isLive := func(h hash.Hash) bool { return pass.covered(h) }
	r.mu.Lock()
	for _, hook := range r.gcHooks {
		hook(isLive)
	}
	r.gcPass = nil
	r.gcCond.Broadcast()
	r.mu.Unlock()
	store.DisarmBarrier(r.s)

	st.BarrierNodes = bar.Len()
	if sweepErr != nil {
		return st, fmt.Errorf("version: GC sweep: %w", sweepErr)
	}
	return st, nil
}

// markCommit accumulates one commit's blob and its version's reachable
// pages into the pass's live set — the primary root plus every extra root
// the commit's Meta trailer references (secondary indexes co-committed
// through RootRefs), so a sweep never strands a co-committed tree. It
// runs without the repo lock — it touches only the pass (single GC
// goroutine) and reads the store, which is safe under concurrent writers.
func (r *Repo) markCommit(p *gcPass, loaders map[string]Loader, c Commit) error {
	if p.walked[c.ID] {
		return nil
	}
	if data, ok := r.s.Get(c.ID); ok {
		p.live[c.ID] = len(data)
	}
	if !c.Root.IsNull() {
		l, ok := loaders[c.Class]
		if !ok {
			return fmt.Errorf("version: GC mark %s: %w: %q", c, ErrNoLoader, c.Class)
		}
		idx, err := l(r.s, c.Root, c.Height)
		if err != nil {
			return fmt.Errorf("version: GC mark %s: %w", c, err)
		}
		if err := core.MarkReachable(idx, c.Root, p.live); err != nil {
			return fmt.Errorf("version: GC mark %s: %w", c, err)
		}
	}
	for _, ref := range MetaRoots(c) {
		if err := r.markRoot(p, loaders, ref); err != nil {
			return fmt.Errorf("version: GC mark %s: %w", c, err)
		}
	}
	p.walked[c.ID] = true
	return nil
}

// gcStopTheWorldLocked is the fallback for stores without the write
// barrier: the whole pass runs under r.mu, so commits and checkouts block
// for its duration — the pre-concurrent-GC behavior, kept for foreign
// Store implementations. The failure path still converges: the log is
// pruned before the sweep and the hooks always fire. Caller holds r.mu
// (write) and r.gcMu.
func (r *Repo) gcStopTheWorldLocked(seeds []Commit, keep map[hash.Hash]bool) (GCStats, error) {
	var st GCStats
	for id, e := range r.pins {
		if !keep[id] {
			seeds = append(seeds, e.c)
		}
	}
	pass := &gcPass{
		live:   make(map[hash.Hash]int),
		walked: make(map[hash.Hash]bool, len(seeds)),
	}
	for _, c := range seeds {
		if err := r.markCommit(pass, r.loaders, c); err != nil {
			return st, err
		}
	}
	st.RetainedCommits = len(keep)
	st.LiveNodes = len(pass.live)
	for _, sz := range pass.live {
		st.LiveBytes += int64(sz)
	}
	// Prune before sweeping, so a sweep failure cannot leave the log
	// pointing at half-reclaimed versions.
	for id := range r.commits {
		if keep[id] || pass.walked[id] {
			continue
		}
		delete(r.commits, id)
		st.DroppedCommits++
	}
	isLive := func(h hash.Hash) bool {
		_, ok := pass.live[h]
		return ok
	}
	sw, sweepErr := store.Sweep(r.s, isLive)
	st.Store = sw
	for _, hook := range r.gcHooks {
		hook(isLive)
	}
	if sweepErr != nil {
		return st, fmt.Errorf("version: GC sweep: %w", sweepErr)
	}
	return st, nil
}

// gcAdmitCommitLocked is Repo.Commit's rendezvous with a concurrent GC
// pass. While a pass is sweeping, a commit whose root is neither marked
// nor barrier-recorded waits the pass out — its version was flushed before
// mark start and unreachable from everything retained, so the sweep may be
// deleting it right now. After any wait (and, cheaply, always) the root's
// presence is re-checked: a missing root means the version is gone and the
// caller must redo the mutation (ErrCommitRaced). Caller holds r.mu.
func (r *Repo) gcAdmitCommitLocked(root hash.Hash) error {
	if root.IsNull() {
		return nil
	}
	for {
		p := r.gcPass
		if p == nil || !p.sweeping || p.covered(root) {
			break
		}
		for r.gcPass == p {
			r.gcCond.Wait()
		}
	}
	if !r.s.Has(root) {
		return fmt.Errorf("%w (root %x)", ErrCommitRaced, root[:6])
	}
	return nil
}
