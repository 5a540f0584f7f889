package version_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/store"
	"repro/internal/version"
)

// This file tests the concurrent-GC contract: the write barrier, the
// commit gate, reader pins, the convergent sweep-failure path, and — the
// acceptance soak — Checkout/Get/Range/Commit racing repeated GC passes
// across all four backends under -race.

// buildHistory commits n versions of cls on branch "main" and returns the
// commits, oldest first. Each version updates `updates` keys of the keySpace.
func buildHistory(t *testing.T, repo *version.Repo, cls indexClass, n, keySpace, updates int) []version.Commit {
	t.Helper()
	idx, err := cls.new(repo.Store())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	commits := make([]version.Commit, 0, n)
	for v := 0; v < n; v++ {
		batch := make([]core.Entry, updates)
		for j := range batch {
			k := rng.Intn(keySpace)
			batch[j] = core.Entry{Key: key(k), Value: val(k, v)}
		}
		idx, err = idx.PutBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		c, err := repo.Commit("main", idx, fmt.Sprintf("v%d", v))
		if err != nil {
			t.Fatal(err)
		}
		commits = append(commits, c)
	}
	return commits
}

// faultSweeper wraps a MemStore so its first Sweep reclaims only `partial`
// dead nodes and then fails — the fault injection for the sweep-failure
// satellite. The embedded MemStore keeps every other capability (barrier
// included) intact.
type faultSweeper struct {
	*store.MemStore
	failures int
	partial  int
}

func (f *faultSweeper) Sweep(live store.LiveFunc) (store.SweepStats, error) {
	if f.failures <= 0 {
		return f.MemStore.Sweep(live)
	}
	f.failures--
	// Admit only the first `partial` distinct dead hashes for sweeping.
	// Answering from the admitted set keeps the predicate consistent per
	// hash however often a sweep consults it.
	admitted := make(map[hash.Hash]bool)
	st, err := f.MemStore.Sweep(func(h hash.Hash) bool {
		if live(h) {
			return true
		}
		if admitted[h] {
			return false
		}
		if len(admitted) >= f.partial {
			return true // pretend live: this dead node is left unswept
		}
		admitted[h] = true
		return false
	})
	if err != nil {
		return st, err
	}
	return st, errors.New("injected sweep failure")
}

// TestGCSweepFailureConverges pins the satellite fix: when the store's
// Sweep fails partway, the pass must still prune the log and fire the OnGC
// hooks with its predicate — otherwise the log and the decoded-node caches
// keep referencing nodes the partial sweep already deleted. A later GC
// finishes the reclamation.
func TestGCSweepFailureConverges(t *testing.T) {
	s := &faultSweeper{MemStore: store.NewMemStore(), failures: 1, partial: 10}
	repo := newRepo(s)
	cls := classByName(t, "POS-Tree")
	commits := buildHistory(t, repo, cls, 10, 60, 8)
	retained := commits[len(commits)-3:]
	dropped := commits[:len(commits)-3]

	probeKeys := make([][]byte, 60)
	for i := range probeKeys {
		probeKeys[i] = key(i)
	}
	view, err := repo.Checkout(retained[2].ID)
	if err != nil {
		t.Fatal(err)
	}
	probe := snapshotVersion(t, view, retained[2], probeKeys)

	hookCalls := 0
	repo.OnGC(func(live store.LiveFunc) {
		hookCalls++
		if !live(retained[2].Root) {
			t.Error("OnGC predicate rejects a retained root")
		}
	})

	st, err := repo.GC(retained[0], retained[1], retained[2])
	if err == nil {
		t.Fatal("GC with injected sweep failure returned nil error")
	}
	if st.Store.SweptNodes == 0 {
		t.Fatalf("fault sweeper reclaimed nothing: %+v", st)
	}
	if hookCalls != 1 {
		t.Fatalf("OnGC hooks ran %d times after a failed sweep, want 1", hookCalls)
	}
	if st.DroppedCommits != len(dropped) {
		t.Fatalf("failed pass dropped %d commits, want %d", st.DroppedCommits, len(dropped))
	}
	for _, c := range dropped {
		if _, ok := repo.Lookup(c.ID); ok {
			t.Fatalf("dropped commit %v still in log after failed sweep", c)
		}
	}
	// The retained version is untouched by the partial sweep.
	checkVersion(t, repo, probe, probeKeys)

	// A second pass converges: no injected failure left, the remaining
	// garbage goes.
	st2, err := repo.GC(retained[0], retained[1], retained[2])
	if err != nil {
		t.Fatalf("second GC after failed sweep: %v", err)
	}
	if st2.Store.SweptNodes == 0 {
		t.Fatalf("second GC swept nothing; first pass left no garbage? %+v", st2)
	}
	if hookCalls != 2 {
		t.Fatalf("OnGC hooks ran %d times total, want 2", hookCalls)
	}
	checkVersion(t, repo, probe, probeKeys)
}

// gateSweeper wraps a MemStore so Sweep parks until released — it holds a
// GC pass open in its sweeping phase so the test can probe the commit gate
// deterministically.
type gateSweeper struct {
	*store.MemStore
	enter   chan struct{}
	release chan struct{}
}

func (g *gateSweeper) Sweep(live store.LiveFunc) (store.SweepStats, error) {
	g.enter <- struct{}{}
	<-g.release
	return g.MemStore.Sweep(live)
}

// TestGCCommitGate drives both sides of the commit/GC rendezvous:
//
//   - a version flushed BEFORE the pass armed its barrier, committed while
//     the pass sweeps, must wait the pass out and fail with ErrCommitRaced
//     once the sweep has reclaimed its pages;
//   - a version flushed AFTER the barrier was armed commits immediately,
//     mid-sweep, without waiting.
func TestGCCommitGate(t *testing.T) {
	s := &gateSweeper{
		MemStore: store.NewMemStore(),
		enter:    make(chan struct{}),
		release:  make(chan struct{}),
	}
	repo := newRepo(s)
	cls := classByName(t, "POS-Tree")
	commits := buildHistory(t, repo, cls, 5, 40, 6)
	head := commits[len(commits)-1]

	// Flush a version now — before the pass starts. Its pages are
	// unreachable from every commit until Repo.Commit records it.
	headView, err := repo.Checkout(head.ID)
	if err != nil {
		t.Fatal(err)
	}
	preFlush, err := headView.PutBatch([]core.Entry{{Key: key(900), Value: val(900, 1)}})
	if err != nil {
		t.Fatal(err)
	}

	gcDone := make(chan error, 1)
	go func() {
		_, err := repo.GC(head)
		gcDone <- err
	}()
	<-s.enter // the pass is in its sweeping phase, parked in Sweep

	// Side 1: committing the pre-barrier version must block (its root is
	// neither marked nor in the barrier).
	commitDone := make(chan error, 1)
	go func() {
		_, err := repo.Commit("main", preFlush, "raced")
		commitDone <- err
	}()
	select {
	case err := <-commitDone:
		t.Fatalf("commit of a doomed pre-barrier version returned early: %v", err)
	case <-time.After(100 * time.Millisecond):
	}

	// Side 2: a mutation started during the pass (barrier-covered) commits
	// without waiting, even though the sweep is still parked.
	duringView, err := repo.Checkout(head.ID)
	if err != nil {
		t.Fatal(err)
	}
	duringIdx, err := duringView.PutBatch([]core.Entry{{Key: key(901), Value: val(901, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	barrierCommit := make(chan error, 1)
	go func() {
		_, err := repo.Commit("main", duringIdx, "under barrier")
		barrierCommit <- err
	}()
	select {
	case err := <-barrierCommit:
		if err != nil {
			t.Fatalf("barrier-covered commit failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("barrier-covered commit blocked behind the sweep")
	}

	close(s.release)
	if err := <-gcDone; err != nil {
		t.Fatalf("GC: %v", err)
	}
	err = <-commitDone
	if !errors.Is(err, version.ErrCommitRaced) {
		t.Fatalf("pre-barrier commit after the sweep = %v, want ErrCommitRaced", err)
	}

	// The branch is healthy: the barrier-covered commit is the head and
	// reads fine.
	after, err := repo.CheckoutBranch("main")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, err := after.Get(key(901)); err != nil || !ok || !bytes.Equal(v, val(901, 1)) {
		t.Fatalf("post-GC head read = %q ok=%v err=%v", v, ok, err)
	}
}

// TestPinKeepsVersionAcrossGC: a pinned old version survives passes that
// would drop it — log entry, pages, proofs — and is reclaimed by the first
// pass after the pin is released.
func TestPinKeepsVersionAcrossGC(t *testing.T) {
	s := store.NewShardedStore(0)
	repo := newRepo(s)
	cls := classByName(t, "MPT")
	commits := buildHistory(t, repo, cls, 12, 60, 8)
	old := commits[2] // far outside the retained window

	probeKeys := make([][]byte, 60)
	for i := range probeKeys {
		probeKeys[i] = key(i)
	}
	pinnedView, pin, err := repo.CheckoutPinned(old.ID)
	if err != nil {
		t.Fatal(err)
	}
	probe := snapshotVersion(t, pinnedView, old, probeKeys)

	for round := 0; round < 2; round++ {
		if _, err := repo.GCRetainRecent(3); err != nil {
			t.Fatalf("GC round %d: %v", round, err)
		}
		if _, ok := repo.Lookup(old.ID); !ok {
			t.Fatalf("pinned commit left the log in GC round %d", round)
		}
		checkVersion(t, repo, probe, probeKeys)
	}

	pin.Release()
	pin.Release() // redundant release is a no-op
	if _, err := repo.GCRetainRecent(3); err != nil {
		t.Fatal(err)
	}
	if _, ok := repo.Lookup(old.ID); ok {
		t.Fatal("released commit still in log after GC")
	}
	if _, err := repo.Checkout(old.ID); !errors.Is(err, version.ErrUnknownCommit) {
		t.Fatalf("checkout of reclaimed commit = %v, want ErrUnknownCommit", err)
	}
}

// TestGCRetainRecent covers the atomic retention helper: newest n per
// branch survive, everything older goes, and the head stays byte-correct.
func TestGCRetainRecent(t *testing.T) {
	s := store.NewMemStore()
	repo := newRepo(s)
	cls := classByName(t, "Prolly-Tree")
	commits := buildHistory(t, repo, cls, 10, 50, 6)

	st, err := repo.GCRetainRecent(4)
	if err != nil {
		t.Fatal(err)
	}
	if st.RetainedCommits != 4 || st.DroppedCommits != 6 {
		t.Fatalf("GCRetainRecent counts = %+v, want 4 retained / 6 dropped", st)
	}
	for _, c := range commits[:6] {
		if _, ok := repo.Lookup(c.ID); ok {
			t.Fatalf("commit %v outside the window survived", c)
		}
	}
	for _, c := range commits[6:] {
		if _, ok := repo.Lookup(c.ID); !ok {
			t.Fatalf("commit %v inside the window was dropped", c)
		}
	}
	if _, err := repo.GCRetainRecent(0); err == nil {
		t.Fatal("GCRetainRecent(0) did not fail")
	}
}

// TestGCHeadNotRetained pins the sentinel for the stale-retained-set race.
func TestGCHeadNotRetained(t *testing.T) {
	s := store.NewMemStore()
	repo := newRepo(s)
	cls := classByName(t, "MBT")
	commits := buildHistory(t, repo, cls, 3, 30, 5)
	if _, err := repo.GC(commits[0]); !errors.Is(err, version.ErrHeadNotRetained) {
		t.Fatalf("GC omitting the head = %v, want ErrHeadNotRetained", err)
	}
}

// TestGCConcurrentSoak is the acceptance soak: one writer advancing the
// branch, readers hammering Checkout/Get/Range/Prove on the moving head
// and on a pinned baseline, and a GC goroutine running back-to-back
// retention passes — across all four backends, under -race. Retained
// roots, gets and proofs must stay byte-identical throughout.
func TestGCConcurrentSoak(t *testing.T) {
	const (
		keySpace    = 60
		updates     = 6
		baseline    = 8 // versions committed before the race starts
		soakTime    = 800 * time.Millisecond
		retainDepth = 3
	)
	cls := classByName(t, "POS-Tree")
	probeKeys := make([][]byte, keySpace)
	for i := range probeKeys {
		probeKeys[i] = key(i)
	}
	for _, be := range retentionBackends() {
		be := be
		t.Run(be.name, func(t *testing.T) {
			s := be.open(t)
			repo := newRepo(s)
			commits := buildHistory(t, repo, cls, baseline, keySpace, updates)

			// Pin the oldest version as the byte-identical probe target.
			pinnedView, pin, err := repo.CheckoutPinned(commits[0].ID)
			if err != nil {
				t.Fatal(err)
			}
			probe := snapshotVersion(t, pinnedView, commits[0], probeKeys)

			var (
				stop     atomic.Bool
				commitN  atomic.Int64
				gcN      atomic.Int64
				sweptN   atomic.Int64
				readN    atomic.Int64
				errsOnce sync.Once
			)
			fail := func(format string, args ...any) {
				errsOnce.Do(func() {
					stop.Store(true)
					t.Errorf(format, args...)
				})
			}
			var wg sync.WaitGroup

			// Writer: mutate → commit through CommitRetry, which owns the
			// redo-from-a-fresh-checkout loop for ErrCommitRaced.
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(17))
				gen := baseline
				for !stop.Load() {
					_, err := version.CommitRetry(repo, "main", fmt.Sprintf("g%d", gen),
						func(idx core.Index) (core.Index, error) {
							batch := make([]core.Entry, updates)
							for j := range batch {
								k := rng.Intn(keySpace)
								batch[j] = core.Entry{Key: key(k), Value: val(k, gen)}
							}
							return idx.PutBatch(batch)
						})
					if err != nil {
						fail("writer commit: %v", err)
						return
					}
					gen++
					commitN.Add(1)
				}
			}()

			// Readers: pin the current head, read and range it, verify a
			// proof, re-verify the pinned baseline.
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for !stop.Load() {
						idx, p, err := repo.CheckoutBranchPinned("main")
						if err != nil {
							fail("reader checkout: %v", err)
							return
						}
						for i := 0; i < 5; i++ {
							k := rng.Intn(keySpace)
							v, ok, err := idx.Get(key(k))
							if err != nil {
								fail("reader Get: %v", err)
								p.Release()
								return
							}
							if ok && !bytes.HasPrefix(v, []byte(fmt.Sprintf("value-%05d-gen-", k))) {
								fail("reader Get(%d) = %q: wrong key's value", k, v)
								p.Release()
								return
							}
						}
						if r, ok := idx.(core.Ranger); ok {
							lo, hi := key(10), key(40)
							var prev []byte
							err := r.Range(lo, hi, func(k, _ []byte) bool {
								if prev != nil && bytes.Compare(prev, k) >= 0 {
									fail("reader Range out of order: %q then %q", prev, k)
									return false
								}
								prev = append(prev[:0], k...)
								return true
							})
							if err != nil {
								fail("reader Range: %v", err)
								p.Release()
								return
							}
						}
						if proof, err := idx.Prove(key(20)); err == nil {
							if err := idx.VerifyProof(idx.RootHash(), proof); err != nil {
								fail("reader proof no longer verifies: %v", err)
								p.Release()
								return
							}
						}
						p.Release()
						readN.Add(1)
						// Every few rounds, re-verify the pinned baseline is
						// byte-identical.
						if readN.Load()%8 == 0 {
							view, err := repo.Checkout(probe.commit.ID)
							if err != nil {
								fail("baseline checkout: %v", err)
								return
							}
							for _, k := range probeKeys[:10] {
								v, ok, err := view.Get(k)
								want := probe.values[string(k)]
								if err != nil {
									fail("baseline Get(%q): %v", k, err)
									return
								}
								if (want == nil) != !ok || (want != nil && !bytes.Equal(v, want)) {
									fail("baseline Get(%q) = %q ok=%v, want %q", k, v, ok, want)
									return
								}
							}
						}
					}
				}(int64(100 + w))
			}

			// Collector: back-to-back retention passes.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					st, err := repo.GCRetainRecent(retainDepth)
					if err != nil {
						fail("GC: %v", err)
						return
					}
					gcN.Add(1)
					sweptN.Add(st.Store.SweptNodes)
				}
			}()

			time.Sleep(soakTime)
			stop.Store(true)
			wg.Wait()
			if t.Failed() {
				return
			}
			if gcN.Load() == 0 || commitN.Load() == 0 || readN.Load() == 0 {
				t.Fatalf("soak did no work: gc=%d commits=%d reads=%d", gcN.Load(), commitN.Load(), readN.Load())
			}
			if sweptN.Load() == 0 {
				t.Fatalf("soak swept nothing across %d passes", gcN.Load())
			}
			t.Logf("%s: %d commits, %d reader rounds, %d GC passes, %d nodes swept",
				be.name, commitN.Load(), readN.Load(), gcN.Load(), sweptN.Load())

			// Quiesced: the pinned baseline is still byte-identical in full.
			checkVersion(t, repo, probe, probeKeys)
			pin.Release()
			if _, err := repo.GCRetainRecent(retainDepth); err != nil {
				t.Fatal(err)
			}
			if _, ok := repo.Lookup(probe.commit.ID); ok {
				t.Fatal("baseline survived GC after its pin was released")
			}
			// And the head still reads.
			head, err := repo.CheckoutBranch("main")
			if err != nil {
				t.Fatal(err)
			}
			if n, err := head.Count(); err != nil || n == 0 {
				t.Fatalf("head Count after soak = %d, %v", n, err)
			}
		})
	}
}

// BenchmarkReadDuringGC measures head-read latency with no collector
// running (idle) and with back-to-back GC passes running (gc) — the
// benchstat pair CI smokes to keep the concurrent-GC pause bounded.
func BenchmarkReadDuringGC(b *testing.B) {
	for _, mode := range []string{"idle", "gc"} {
		b.Run(mode, func(b *testing.B) {
			s := store.NewShardedStore(0)
			repo := version.NewRepo(s)
			var cls indexClass
			for _, c := range classes() {
				if c.name == "POS-Tree" {
					cls = c
				}
			}
			repo.RegisterLoader(cls.name, cls.loader)
			idx, err := cls.new(s)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			const keySpace = 200
			for v := 0; v < 12; v++ {
				batch := make([]core.Entry, 20)
				for j := range batch {
					k := rng.Intn(keySpace)
					batch[j] = core.Entry{Key: key(k), Value: val(k, v)}
				}
				idx, err = idx.PutBatch(batch)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := repo.Commit("main", idx, fmt.Sprintf("v%d", v)); err != nil {
					b.Fatal(err)
				}
			}
			var stop atomic.Bool
			var wg sync.WaitGroup
			if mode == "gc" {
				wg.Add(1)
				go func() {
					defer wg.Done()
					gen := 1000
					for !stop.Load() {
						// Keep committing so every pass has garbage to sweep.
						head, err := repo.CheckoutBranch("main")
						if err != nil {
							return
						}
						k := gen % keySpace
						next, err := head.PutBatch([]core.Entry{{Key: key(k), Value: val(k, gen)}})
						if err != nil {
							return
						}
						if _, err := repo.Commit("main", next, "churn"); err != nil &&
							!errors.Is(err, version.ErrCommitRaced) {
							return
						}
						gen++
						if _, err := repo.GCRetainRecent(3); err != nil {
							return
						}
					}
				}()
			}
			view, pin, err := repo.CheckoutBranchPinned("main")
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % keySpace
				if _, _, err := view.Get(key(k)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			stop.Store(true)
			wg.Wait()
			pin.Release()
		})
	}
}
