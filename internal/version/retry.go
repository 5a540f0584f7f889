package version

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
)

// CommitRetry retry policy. The base doubles per attempt (capped) with up
// to 50% added jitter, so racing writers that all lost to the same GC pass
// or the same head move do not reconverge on the branch in lockstep.
const (
	commitRetryAttempts = 16
	commitRetryBase     = 500 * time.Microsecond
	commitRetryCap      = 50 * time.Millisecond
)

// CommitRetry runs mutate against the current head version of branch and
// commits the result as a linearizable read-modify-write of the branch:
// every attempt commits through CommitOnto with the head it checked out as
// the expected parent, so a version is recorded only if no other writer
// advanced the branch in between. An attempt that lost the head
// (ErrHeadMoved) or lost its flushed pages to a concurrent GC pass
// (ErrCommitRaced) is redone from a fresh checkout, with exponential
// backoff and jitter between attempts. This is the loop every writer that
// shares a branch or overlaps GC would otherwise hand-roll; the forkbase
// servlet, the ingest merge and the GC soak tests all commit through it.
//
// mutate receives the branch head's checked-out index — nil when the
// branch does not exist yet, in which case mutate must build the first
// version itself — and returns the successor version to commit. mutate may
// run more than once and must be restartable: derive the new version only
// from the index passed in, never from state captured outside the call.
// Any other error from mutate aborts the loop unchanged.
func CommitRetry(r *Repo, branch, message string, mutate func(idx core.Index) (core.Index, error)) (Commit, error) {
	return CommitRetryMeta(r, branch, message, nil, mutate)
}

// CommitRetryMeta is CommitRetry with commit metadata: every attempt
// records the same meta bytes on the commit it tries (see Repo.CommitMeta).
// The ingest merge path uses it so the WAL high-water mark survives however
// many retries the commit has to ride out.
func CommitRetryMeta(r *Repo, branch, message string, meta []byte, mutate func(idx core.Index) (core.Index, error)) (Commit, error) {
	return CommitRetryHead(r, branch, message, func(head Commit) (core.Index, []byte, error) {
		var idx core.Index
		if !head.ID.IsNull() {
			var err error
			if idx, err = r.Checkout(head.ID); err != nil {
				return nil, nil, err
			}
		}
		next, err := mutate(idx)
		return next, meta, err
	})
}

// CommitRetryHead is the general form of the CommitRetry loop, for writers
// that keep their own view of the head (a cached checkout, secondary
// indexes recorded in the head's RootRefs). mutate receives the head
// commit the attempt observed — the zero Commit when the branch does not
// exist yet — and returns the successor version and the metadata to
// record with it; the attempt commits them with head.ID as the expected
// parent. The restartability rule of CommitRetry applies: derive both
// results from head alone. Besides ErrHeadMoved and ErrCommitRaced, a
// mutate error wrapping ErrUnknownCommit is retried when the branch head
// has moved meanwhile — a retention GC dropped the superseded head before
// mutate could check it out.
func CommitRetryHead(r *Repo, branch, message string, mutate func(head Commit) (core.Index, []byte, error)) (Commit, error) {
	var lastErr error
	for attempt := 0; attempt < commitRetryAttempts; attempt++ {
		if attempt > 0 {
			SleepBackoff(attempt, commitRetryBase, commitRetryCap)
		}
		head, _ := r.Head(branch)
		next, meta, err := mutate(head)
		if err != nil {
			if now, _ := r.Head(branch); errors.Is(err, ErrUnknownCommit) && now.ID != head.ID {
				lastErr = err
				continue
			}
			return Commit{}, err
		}
		c, err := r.CommitOnto(branch, head.ID, next, message, meta)
		if err == nil {
			return c, nil
		}
		if !errors.Is(err, ErrCommitRaced) && !errors.Is(err, ErrHeadMoved) {
			return Commit{}, err
		}
		lastErr = err
	}
	return Commit{}, fmt.Errorf("version: commit retry exhausted after %d attempts: %w",
		commitRetryAttempts, lastErr)
}

// SleepBackoff sleeps the capped exponential backoff for retry attempt
// (1-based): base doubled per attempt up to limit, plus up to 50% jitter
// so retrying peers spread out instead of colliding again.
func SleepBackoff(attempt int, base, limit time.Duration) {
	d := base << (attempt - 1)
	if d > limit || d <= 0 {
		d = limit
	}
	d += time.Duration(rand.Int63n(int64(d)/2 + 1))
	time.Sleep(d)
}
