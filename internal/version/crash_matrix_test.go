package version_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/store"
	"repro/internal/store/faultstore"
	"repro/internal/version"
)

// This file holds the robustness acceptance tests: the end-to-end scrub
// (Repo.Verify), the crash-consistency matrix — every named crash point
// fired against every backend, then reopen and verify — and the fault soak
// that must converge to byte-identical branch heads with and without
// injected faults. Run under -race.

// tamperStore serves altered bytes for chosen digests, to give Verify real
// corruption to find (no backend can be corrupted through its public
// surface — content addressing is the point).
type tamperStore struct {
	*store.MemStore
	mu  sync.Mutex
	bad map[hash.Hash]bool
}

func (ts *tamperStore) Get(h hash.Hash) ([]byte, bool) {
	data, ok := ts.MemStore.Get(h)
	ts.mu.Lock()
	tamper := ts.bad[h]
	ts.mu.Unlock()
	if ok && tamper {
		cp := append([]byte(nil), data...)
		cp[len(cp)-1] ^= 0xff
		return cp, true
	}
	return data, ok
}

func (ts *tamperStore) corrupt(h hash.Hash) {
	ts.mu.Lock()
	ts.bad[h] = true
	ts.mu.Unlock()
}

// TestVerifyCleanRepo checks the scrub walks the whole reachable graph of
// a multi-branch history and reports it intact.
func TestVerifyCleanRepo(t *testing.T) {
	s := store.NewMemStore()
	repo := newRepo(s)
	cls := classByName(t, "MPT")
	commits := buildHistory(t, repo, cls, 6, 40, 6)
	if err := repo.Branch("fork", commits[2].ID); err != nil {
		t.Fatal(err)
	}
	rep, err := repo.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean repo verify = %s; faults: %v", rep, rep.Faults)
	}
	if rep.Commits != 6 {
		t.Fatalf("verify walked %d commits, want 6", rep.Commits)
	}
	if rep.Nodes == 0 || rep.Bytes == 0 {
		t.Fatalf("verify re-hashed nothing: %s", rep)
	}
}

// TestVerifyReportsMissingNode deletes one old version's root page and
// checks Verify pinpoints it, attributes the stranded commit, and keeps
// walking the rest of the graph.
func TestVerifyReportsMissingNode(t *testing.T) {
	s := store.NewMemStore()
	repo := newRepo(s)
	cls := classByName(t, "MPT")
	commits := buildHistory(t, repo, cls, 5, 40, 6)
	victim := commits[1]
	if ok, err := store.Delete(s, victim.Root); err != nil || !ok {
		t.Fatalf("delete victim root: %v %v", ok, err)
	}
	rep, err := repo.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("verify missed a deleted root page")
	}
	var f *version.VerifyFault
	for i := range rep.Faults {
		if rep.Faults[i].Node == victim.Root {
			f = &rep.Faults[i]
		}
	}
	if f == nil {
		t.Fatalf("no fault for the deleted root; got %v", rep.Faults)
	}
	if f.Corrupt {
		t.Fatal("deleted node reported as corrupt, want missing")
	}
	stranded := false
	for _, id := range f.Commits {
		if id == victim.ID {
			stranded = true
		}
	}
	if !stranded {
		t.Fatalf("fault does not strand the victim commit: %v", f.Commits)
	}
	// The rest of the graph was still walked: all 5 commits reached.
	if rep.Commits != 5 {
		t.Fatalf("verify stopped early: walked %d commits, want 5", rep.Commits)
	}
}

// TestVerifyReportsCorruptNode serves tampered bytes for one head commit
// blob and checks Verify flags it as corrupt (present, fails the re-hash).
func TestVerifyReportsCorruptNode(t *testing.T) {
	ts := &tamperStore{MemStore: store.NewMemStore(), bad: map[hash.Hash]bool{}}
	repo := newRepo(ts)
	cls := classByName(t, "MBT")
	commits := buildHistory(t, repo, cls, 4, 30, 5)
	head := commits[len(commits)-1]
	ts.corrupt(head.ID)
	rep, err := repo.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("verify served tampered bytes as intact")
	}
	if len(rep.Faults) != 1 || rep.Faults[0].Node != head.ID || !rep.Faults[0].Corrupt {
		t.Fatalf("faults = %v, want exactly the corrupt head blob", rep.Faults)
	}
}

// matrixBackend is one store configuration of the crash matrix. disk is
// non-nil for configurations with on-disk state, and reopen models what a
// process restart sees: for disk stores, CrashClose (nothing flushed by
// the close itself) and a fresh open of the same directory; for in-memory
// stores, the same store — a panic unwound, not a machine wiped.
type matrixBackend struct {
	name string
	open func(t *testing.T, hook func(string)) (wrapped store.Store, disk *store.DiskStore, reopen func(t *testing.T) store.Store)
}

func matrixBackends() []matrixBackend {
	diskOpts := func(hook func(string)) store.DiskOptions {
		return store.DiskOptions{
			SegmentBytes: 1 << 14, // force segment rolls within a short history
			CrashHook:    hook,
		}
	}
	return []matrixBackend{
		{"mem", func(t *testing.T, _ func(string)) (store.Store, *store.DiskStore, func(t *testing.T) store.Store) {
			s := store.NewMemStore()
			return s, nil, func(*testing.T) store.Store { return s }
		}},
		{"sharded", func(t *testing.T, _ func(string)) (store.Store, *store.DiskStore, func(t *testing.T) store.Store) {
			s := store.NewShardedStore(4)
			return s, nil, func(*testing.T) store.Store { return s }
		}},
		{"disk", func(t *testing.T, hook func(string)) (store.Store, *store.DiskStore, func(t *testing.T) store.Store) {
			dir := t.TempDir()
			d, err := store.OpenDiskStore(dir, diskOpts(hook))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			return d, d, func(t *testing.T) store.Store {
				d.CrashClose()
				re, err := store.OpenDiskStore(dir, store.DiskOptions{})
				if err != nil {
					t.Fatalf("reopen after crash: %v", err)
				}
				t.Cleanup(func() { re.Close() })
				return re
			}
		}},
		{"cacheddisk", func(t *testing.T, hook func(string)) (store.Store, *store.DiskStore, func(t *testing.T) store.Store) {
			dir := t.TempDir()
			d, err := store.OpenDiskStore(dir, diskOpts(hook))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			return store.NewCachedStore(d, 1<<20), d, func(t *testing.T) store.Store {
				d.CrashClose()
				re, err := store.OpenDiskStore(dir, store.DiskOptions{})
				if err != nil {
					t.Fatalf("reopen after crash: %v", err)
				}
				t.Cleanup(func() { re.Close() })
				return store.NewCachedStore(re, 1<<20)
			}
		}},
	}
}

// matrixPoints returns the crash points exercised against one backend: the
// injector's own capability-surface points everywhere, plus DiskStore's
// internal write-path points when the backend has disk state.
func matrixPoints(hasDisk bool) []string {
	points := []string{faultstore.CrashPut, faultstore.CrashSetMeta, faultstore.CrashSweep}
	if hasDisk {
		points = append(points, store.CrashPoints()...)
	}
	return points
}

// TestCrashConsistencyMatrix is the tentpole acceptance test: for every
// crash point × backend, run a commit+GC workload until the armed point
// fires mid-operation, simulate the process death (reopen for disk-backed
// stores), and require the survivor to come back with a resumable branch,
// a clean end-to-end scrub, and a working commit path.
func TestCrashConsistencyMatrix(t *testing.T) {
	cls := classByName(t, "MPT")
	for _, be := range matrixBackends() {
		be := be
		for _, point := range matrixPoints(be.name == "disk" || be.name == "cacheddisk") {
			point := point
			t.Run(be.name+"/"+point, func(t *testing.T) {
				var fs *faultstore.FaultStore
				base, _, reopen := be.open(t, func(p string) { fs.Hook(p) })
				fs = faultstore.Wrap(base, faultstore.Config{})
				repo := newRepo(fs)

				// Seed a durable prefix before arming anything.
				seed := buildHistory(t, repo, cls, 3, 40, 8)
				seedHead := seed[len(seed)-1]

				fs.ArmCrash(point, 1)
				crashed := false
				step := func(gen int) {
					defer func() {
						if p, ok := faultstore.Recovered(recover()); ok {
							if p != point {
								t.Fatalf("crashed at %q, armed %q", p, point)
							}
							crashed = true
						}
					}()
					_, err := version.CommitRetry(repo, "main", fmt.Sprintf("crash-gen-%d", gen),
						func(idx core.Index) (core.Index, error) {
							batch := make([]core.Entry, 8)
							for j := range batch {
								batch[j] = core.Entry{Key: key(j * 3), Value: val(j*3, gen)}
							}
							return idx.PutBatch(batch)
						})
					if err != nil {
						t.Fatalf("workload commit: %v", err)
					}
					if gen%3 == 2 {
						if _, err := repo.GCRetainRecent(2); err != nil {
							t.Fatalf("workload GC: %v", err)
						}
					}
				}
				for gen := 0; gen < 40 && !crashed; gen++ {
					step(gen)
				}
				if !crashed {
					t.Fatalf("crash point %s never fired under the workload", point)
				}

				// The crash may have interrupted a GC pass between arming
				// and disarming the store barrier; a dead process holds no
				// locks, so release it before the post-mortem.
				store.DisarmBarrier(fs)

				after := reopen(t)
				repo2 := newRepo(after)
				head, ok := repo2.Head("main")
				if !ok {
					t.Fatal("branch main not resumable after crash")
				}
				// Heads move only on durable commits, so the resumed head is
				// the seed head or a successor committed before the crash.
				if head.Time < seedHead.Time {
					t.Fatalf("head rolled back past the seed: %v", head)
				}
				rep, err := repo2.Verify()
				if err != nil {
					t.Fatal(err)
				}
				if !rep.OK() {
					t.Fatalf("scrub after crash at %s found damage: %v", point, rep.Faults)
				}
				if rep.Commits == 0 || rep.Nodes == 0 {
					t.Fatalf("scrub walked nothing: %s", rep)
				}

				// The survivor keeps working: commit and re-verify.
				if _, err := version.CommitRetry(repo2, "main", "post-crash",
					func(idx core.Index) (core.Index, error) {
						return idx.PutBatch([]core.Entry{{Key: key(999), Value: val(999, 1)}})
					}); err != nil {
					t.Fatalf("post-crash commit: %v", err)
				}
				rep, err = repo2.Verify()
				if err != nil {
					t.Fatal(err)
				}
				if !rep.OK() {
					t.Fatalf("scrub after post-crash commit: %v", rep.Faults)
				}
			})
		}
	}
}

// TestFaultSoakHeadConvergence runs the same deterministic multi-branch
// workload twice — once clean, once under injected sweep failures and
// latency with concurrent GC — and requires byte-identical branch heads.
// Content addressing makes head equality transitive: equal head IDs mean
// every commit, parent link and page below them is identical too.
func TestFaultSoakHeadConvergence(t *testing.T) {
	const (
		branches = 3
		commits  = 20
	)
	cls := classByName(t, "MPT")
	epoch := time.Unix(1700000000, 0)

	run := func(t *testing.T, cfg *faultstore.Config) map[string]hash.Hash {
		base := store.NewMemStore()
		var s store.Store = base
		var fs *faultstore.FaultStore
		if cfg != nil {
			fs = faultstore.Wrap(base, *cfg)
			s = fs
		}
		repo := newRepo(s)
		repo.SetClock(func() time.Time { return epoch })

		var wg sync.WaitGroup
		errs := make(chan error, branches+1)
		for b := 0; b < branches; b++ {
			wg.Add(1)
			go func(b int) {
				defer wg.Done()
				branch := fmt.Sprintf("soak-%d", b)
				for v := 0; v < commits; v++ {
					_, err := version.CommitRetry(repo, branch, fmt.Sprintf("%s v%d", branch, v),
						func(idx core.Index) (core.Index, error) {
							if idx == nil {
								fresh, err := cls.new(repo.Store())
								if err != nil {
									return nil, err
								}
								idx = fresh
							}
							batch := make([]core.Entry, 6)
							for j := range batch {
								k := b*1000 + (v*7+j)%50
								batch[j] = core.Entry{Key: key(k), Value: val(k, v)}
							}
							return idx.PutBatch(batch)
						})
					if err != nil {
						errs <- fmt.Errorf("branch %s v%d: %w", branch, v, err)
						return
					}
				}
			}(b)
		}
		writersDone := make(chan struct{})
		go func() { wg.Wait(); close(writersDone) }()

		// Collector: back-to-back retention passes until the writers stop.
		// Injected sweep failures are the point — the pass must converge
		// (log pruned, hooks fired) and a later pass finishes reclamation.
		gcErrs := 0
		for done := false; !done; {
			select {
			case <-writersDone:
				done = true
			default:
			}
			if len(repo.Branches()) == 0 {
				continue
			}
			if _, err := repo.GCRetainRecent(2); err != nil {
				gcErrs++
			}
		}
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if cfg != nil && cfg.SweepFailEvery > 0 && gcErrs == 0 {
			t.Fatal("fault run injected no sweep failures; soak exercised nothing")
		}

		if fs != nil {
			fs.Heal()
		}
		rep, err := repo.Verify()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("post-soak scrub found damage: %v", rep.Faults)
		}
		heads := make(map[string]hash.Hash)
		for _, name := range repo.Branches() {
			c, ok := repo.Head(name)
			if !ok {
				t.Fatalf("branch %q lost its head", name)
			}
			heads[name] = c.ID
		}
		return heads
	}

	clean := run(t, nil)
	faulty := run(t, &faultstore.Config{
		Seed:           11,
		SweepFailEvery: 2,
		Delay:          100 * time.Microsecond,
		DelayJitter:    100 * time.Microsecond,
		DelayEvery:     13,
		VerifyReads:    true,
	})
	if len(clean) != branches || len(faulty) != branches {
		t.Fatalf("branch counts diverge: clean %d, faulty %d", len(clean), len(faulty))
	}
	for name, id := range clean {
		if got := faulty[name]; got != id {
			t.Fatalf("branch %q heads diverge: clean %x, faulty %x", name, id[:6], got[:6])
		}
	}
}
