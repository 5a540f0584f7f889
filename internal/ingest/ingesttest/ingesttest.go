// Package ingesttest provides the conformance battery for the WAL-backed
// ingest front-end — the ingest-level sibling of core/indextest. Every
// index class that can sit behind an ingest.Buffer wires itself in with one
// call:
//
//	ingesttest.RunIngestTests(t, "MPT", ingesttest.Options{
//		New:    func(s store.Store) (core.Index, error) { return mpt.New(s), nil },
//		Loader: func(s store.Store, root hash.Hash, _ int) (core.Index, error) { ... },
//	})
//
// The battery pins the front-end's behavioural contract — read-your-writes
// before any merge, tombstones masking base hits, the layered Range
// honouring core.Ranger bounds and ordering across overlay and base, a
// randomized CRUD oracle with merges at arbitrary points, WAL replay across
// close/reopen with no lost or ghost writes, and the auto-merge thresholds
// — and runs all of it against every store configuration (the default and
// a 4-shard MemStore, DiskStore, a cached MemStore). Run under -race to make the backend dimension meaningful.
package ingesttest

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/store"
	"repro/internal/version"
)

// Options describes one index class to the battery.
type Options struct {
	// New builds an empty index over s; it becomes the buffer's
	// Options.New and builds the first merged version. Required.
	New func(s store.Store) (core.Index, error)
	// Loader reopens the class's versions on checkout; it is registered
	// on the test repo under the suite name. Required.
	Loader version.Loader
}

// RunIngestTests runs the ingest conformance battery for the index class
// named name against every store backend.
func RunIngestTests(t *testing.T, name string, opts Options) {
	t.Helper()
	if opts.New == nil || opts.Loader == nil {
		t.Fatal("ingesttest: Options.New and Options.Loader are required")
	}
	cases := []struct {
		name string
		fn   func(*testing.T, string, Options, storeFactory)
	}{
		{"ReadYourWrites", testReadYourWrites},
		{"TombstoneMasking", testTombstoneMasking},
		{"RangeOrdering", testRangeOrdering},
		{"OracleCRUD", testOracleCRUD},
		{"ReopenReplay", testReopenReplay},
		{"AutoMerge", testAutoMerge},
	}
	for _, be := range backends() {
		be := be
		t.Run(be.name, func(t *testing.T) {
			for _, tc := range cases {
				tc := tc
				t.Run(tc.name, func(t *testing.T) { tc.fn(t, name, opts, be.open) })
			}
		})
	}
}

// storeFactory opens one fresh store per (sub)test, registering any cleanup
// with t.
type storeFactory func(t *testing.T) store.Store

// backends enumerates the store backends the battery crosses the ingest
// path with — the same four indextest and storetest certify.
func backends() []struct {
	name string
	open storeFactory
} {
	return []struct {
		name string
		open storeFactory
	}{
		{"mem", func(t *testing.T) store.Store { return store.NewMemStore() }},
		{"sharded", func(t *testing.T) store.Store { return store.NewShardedStore(4) }},
		{"disk", func(t *testing.T) store.Store {
			s, err := store.Open(store.Config{Backend: store.BackendDisk, Dir: t.TempDir()})
			if err != nil {
				t.Fatalf("open disk store: %v", err)
			}
			t.Cleanup(func() { store.Release(s) })
			return s
		}},
		{"cached", func(t *testing.T) store.Store {
			return store.NewCachedStore(store.NewMemStore(), 1<<20)
		}},
	}
}

// harness bundles one buffer with its repo and WAL directory so tests can
// reopen it.
type harness struct {
	repo *version.Repo
	dir  string
	bu   *ingest.Buffer
}

// newHarness builds a repo over a fresh store and opens a buffer with the
// class under test, registering cleanup with t.
func newHarness(t *testing.T, name string, opts Options, open storeFactory) *harness {
	t.Helper()
	repo := version.NewRepo(open(t))
	repo.RegisterLoader(name, opts.Loader)
	h := &harness{repo: repo, dir: t.TempDir()}
	h.bu = h.open(t, opts)
	t.Cleanup(func() { _ = h.bu.Close() })
	return h
}

// open opens a buffer over the harness's repo and WAL directory.
func (h *harness) open(t *testing.T, opts Options) *ingest.Buffer {
	t.Helper()
	bu, err := ingest.Open(h.repo, ingest.Options{Dir: h.dir, New: opts.New})
	if err != nil {
		t.Fatalf("ingest.Open: %v", err)
	}
	return bu
}

// reopen closes the current buffer and opens a fresh one over the same repo
// and WAL directory — the replay path.
func (h *harness) reopen(t *testing.T, opts Options) {
	t.Helper()
	if err := h.bu.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	h.bu = h.open(t, opts)
}

func k(i int) []byte      { return []byte(fmt.Sprintf("key-%05d", i)) }
func v(i, gen int) []byte { return []byte(fmt.Sprintf("val-%05d-gen%d", i, gen)) }
func ks(b []byte) string  { return string(b) }
func mustMerge(t *testing.T, bu *ingest.Buffer) {
	t.Helper()
	if _, _, err := bu.Merge(); err != nil {
		t.Fatalf("Merge: %v", err)
	}
}

// checkOracle compares the buffer's full visible state (Range plus point
// Gets) against the oracle map.
func checkOracle(t *testing.T, bu *ingest.Buffer, oracle map[string][]byte) {
	t.Helper()
	var wantKeys []string
	for key := range oracle {
		wantKeys = append(wantKeys, key)
	}
	sort.Strings(wantKeys)
	var gotKeys []string
	err := bu.Range(nil, nil, func(key, val []byte) bool {
		gotKeys = append(gotKeys, string(key))
		if want := oracle[string(key)]; !bytes.Equal(val, want) {
			t.Fatalf("Range key %q = %q, want %q", key, val, want)
		}
		return true
	})
	if err != nil {
		t.Fatalf("Range: %v", err)
	}
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("Range visited %d keys, want %d\n got %v\nwant %v",
			len(gotKeys), len(wantKeys), gotKeys, wantKeys)
	}
	for i := range gotKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Fatalf("Range order diverges at %d: got %q want %q", i, gotKeys[i], wantKeys[i])
		}
	}
	for key, want := range oracle {
		got, ok, err := bu.Get([]byte(key))
		if err != nil {
			t.Fatalf("Get(%q): %v", key, err)
		}
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("Get(%q) = %q/%v, want %q", key, got, ok, want)
		}
	}
}

// testReadYourWrites: a buffered write is visible the moment Put returns —
// before any merge — and overwrites are visible in order, across merges.
func testReadYourWrites(t *testing.T, name string, opts Options, open storeFactory) {
	h := newHarness(t, name, opts, open)
	if err := h.bu.Put(k(1), v(1, 0)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok, err := h.bu.Get(k(1))
	if err != nil || !ok || !bytes.Equal(got, v(1, 0)) {
		t.Fatalf("pre-merge Get = %q/%v/%v, want %q", got, ok, err, v(1, 0))
	}
	// Overwrite in the memtable wins over the older buffered value.
	if err := h.bu.Put(k(1), v(1, 1)); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := h.bu.Get(k(1)); !bytes.Equal(got, v(1, 1)) {
		t.Fatalf("overwrite not visible: got %q", got)
	}
	mustMerge(t, h.bu)
	// Post-merge the value comes from the branch head.
	if got, ok, _ := h.bu.Get(k(1)); !ok || !bytes.Equal(got, v(1, 1)) {
		t.Fatalf("post-merge Get = %q/%v", got, ok)
	}
	// A fresh write shadows the merged value immediately.
	if err := h.bu.Put(k(1), v(1, 2)); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := h.bu.Get(k(1)); !bytes.Equal(got, v(1, 2)) {
		t.Fatalf("overlay does not shadow merged value: got %q", got)
	}
	if st := h.bu.Stats(); st.Merges != 1 || st.MemEntries != 1 {
		t.Fatalf("stats after merge+write: %+v", st)
	}
	// Empty keys are rejected with the core sentinel.
	if err := h.bu.Put(nil, v(0, 0)); err != core.ErrEmptyKey {
		t.Fatalf("empty-key Put err = %v, want core.ErrEmptyKey", err)
	}
}

// testTombstoneMasking: a buffered delete masks the merged value in Get and
// Range before the merge applies it, and the key stays gone after.
func testTombstoneMasking(t *testing.T, name string, opts Options, open storeFactory) {
	h := newHarness(t, name, opts, open)
	for i := 0; i < 8; i++ {
		if err := h.bu.Put(k(i), v(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	mustMerge(t, h.bu)
	if err := h.bu.Delete(k(3)); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, ok, err := h.bu.Get(k(3)); err != nil || ok {
		t.Fatalf("tombstoned key visible: ok=%v err=%v", ok, err)
	}
	n := 0
	if err := h.bu.Range(nil, nil, func(key, _ []byte) bool {
		if bytes.Equal(key, k(3)) {
			t.Fatal("tombstoned key surfaced in Range")
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("Range visited %d keys, want 7", n)
	}
	mustMerge(t, h.bu)
	if _, ok, _ := h.bu.Get(k(3)); ok {
		t.Fatal("deleted key reappeared after merge")
	}
	if cnt, err := h.bu.Count(); err != nil || cnt != 7 {
		t.Fatalf("Count = %d/%v, want 7", cnt, err)
	}
	// Deleting a key the branch never held merges as a no-op.
	if err := h.bu.Delete(k(99)); err != nil {
		t.Fatal(err)
	}
	mustMerge(t, h.bu)
	if cnt, _ := h.bu.Count(); cnt != 7 {
		t.Fatalf("no-op delete changed Count to %d", cnt)
	}
}

// testRangeOrdering: the layered Range interleaves overlay and base keys in
// one ascending sequence, honours half-open bounds, and stops early.
func testRangeOrdering(t *testing.T, name string, opts Options, open storeFactory) {
	h := newHarness(t, name, opts, open)
	for i := 0; i < 20; i += 2 { // evens merge into the base
		if err := h.bu.Put(k(i), v(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	mustMerge(t, h.bu)
	for i := 1; i < 20; i += 2 { // odds stay in the memtable
		if err := h.bu.Put(k(i), v(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	if err := h.bu.Range(k(3), k(15), func(key, _ []byte) bool {
		got = append(got, ks(key))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 3; i < 15; i++ {
		want = append(want, ks(k(i)))
	}
	if len(got) != len(want) {
		t.Fatalf("Range[3,15) = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Range[3,15) = %v, want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	if err := h.bu.Range(nil, nil, func(_, _ []byte) bool { n++; return n < 5 }); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("early stop visited %d, want 5", n)
	}
	// Empty range is a no-op.
	if err := h.bu.Range(k(9), k(9), func(_, _ []byte) bool {
		t.Fatal("empty range visited a key")
		return false
	}); err != nil {
		t.Fatal(err)
	}
}

// testOracleCRUD drives a randomized put/delete stream against a map
// oracle, merging at random points, and checks full equality (ordered Range
// plus point Gets) after every merge and at the end.
func testOracleCRUD(t *testing.T, name string, opts Options, open storeFactory) {
	h := newHarness(t, name, opts, open)
	rng := rand.New(rand.NewSource(427))
	oracle := make(map[string][]byte)
	const keySpace = 120
	gen := 0
	for step := 0; step < 600; step++ {
		i := rng.Intn(keySpace)
		switch {
		case rng.Intn(4) == 0: // delete
			if err := h.bu.Delete(k(i)); err != nil {
				t.Fatalf("step %d Delete: %v", step, err)
			}
			delete(oracle, ks(k(i)))
		default:
			gen++
			if err := h.bu.Put(k(i), v(i, gen)); err != nil {
				t.Fatalf("step %d Put: %v", step, err)
			}
			oracle[ks(k(i))] = v(i, gen)
		}
		if rng.Intn(90) == 0 {
			mustMerge(t, h.bu)
			checkOracle(t, h.bu, oracle)
		}
	}
	checkOracle(t, h.bu, oracle) // pre-final-merge: overlay + base mix
	mustMerge(t, h.bu)
	checkOracle(t, h.bu, oracle)
	if st := h.bu.Stats(); st.MemEntries != 0 {
		t.Fatalf("memtable not drained after final merge: %+v", st)
	}
}

// testReopenReplay: closing without merging keeps unmerged writes in the
// WAL; reopening replays them — and only them — into the memtable. The
// reopen-mid-ingest shape (merge commits behind, live writes in front) must
// round-trip with no lost writes and no ghosts.
func testReopenReplay(t *testing.T, name string, opts Options, open storeFactory) {
	h := newHarness(t, name, opts, open)
	oracle := make(map[string][]byte)
	for i := 0; i < 30; i++ {
		if err := h.bu.Put(k(i), v(i, 0)); err != nil {
			t.Fatal(err)
		}
		oracle[ks(k(i))] = v(i, 0)
	}
	mustMerge(t, h.bu)
	// Post-merge writes: an overwrite, a delete of a merged key, a new key.
	if err := h.bu.Put(k(5), v(5, 1)); err != nil {
		t.Fatal(err)
	}
	oracle[ks(k(5))] = v(5, 1)
	if err := h.bu.Delete(k(7)); err != nil {
		t.Fatal(err)
	}
	delete(oracle, ks(k(7)))
	if err := h.bu.Put(k(100), v(100, 0)); err != nil {
		t.Fatal(err)
	}
	oracle[ks(k(100))] = v(100, 0)

	h.reopen(t, opts) // Close flushes; reopen replays
	if st := h.bu.Stats(); st.MemEntries != 3 {
		t.Fatalf("replay rebuilt %d memtable entries, want 3 (stats %+v, replay %+v)",
			st.MemEntries, st, h.bu.Replay)
	}
	checkOracle(t, h.bu, oracle)

	// Merge, reopen again: nothing to replay, nothing resurrected.
	mustMerge(t, h.bu)
	h.reopen(t, opts)
	if st := h.bu.Stats(); st.MemEntries != 0 {
		t.Fatalf("ghost writes after post-merge reopen: %+v", st)
	}
	if h.bu.Replay.Replayed != 0 {
		t.Fatalf("post-merge reopen replayed %d records, want 0", h.bu.Replay.Replayed)
	}
	checkOracle(t, h.bu, oracle)
	// The tombstoned key must stay dead through every reopen — the ghost
	// a non-idempotent replay would resurrect.
	if _, ok, _ := h.bu.Get(k(7)); ok {
		t.Fatal("tombstoned key resurrected by replay")
	}
}

// testAutoMerge: with AutoMerge set, crossing MaxEntries runs a merge
// inline and the buffer keeps serving the same contents.
func testAutoMerge(t *testing.T, name string, opts Options, open storeFactory) {
	repo := version.NewRepo(open(t))
	repo.RegisterLoader(name, opts.Loader)
	bu, err := ingest.Open(repo, ingest.Options{
		Dir: t.TempDir(), New: opts.New,
		AutoMerge: true, MaxEntries: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bu.Close()
	oracle := make(map[string][]byte)
	for i := 0; i < 100; i++ {
		if err := bu.Put(k(i), v(i, 0)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		oracle[ks(k(i))] = v(i, 0)
	}
	st := bu.Stats()
	if st.Merges == 0 {
		t.Fatalf("no auto-merge tripped over 100 writes at MaxEntries=16: %+v", st)
	}
	if st.MemEntries >= 100 {
		t.Fatalf("memtable never drained: %+v", st)
	}
	checkOracle(t, bu, oracle)
}
