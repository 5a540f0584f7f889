// Package indextest provides the conformance suite every core.Index
// implementation must pass — the index-level sibling of store/storetest.
// An index package wires itself in with one call:
//
//	indextest.RunIndexTests(t, "MPT", indextest.Options{
//		New: func(s store.Store) (core.Index, error) { return mpt.New(s), nil },
//		...
//	})
//
// The suite pins down the behavioural contract the experiments and the
// paper's claims rely on — put/get/delete against a map oracle, batch
// semantics (duplicate keys collapse last-wins, nil values normalize to
// empty), Iterate ordering, the core.Ranger bound semantics with a
// property-based oracle check, diff/merge, proof verification, replay
// determinism, structural invariance, golden root-hash vectors, and a
// node-read-count assertion that bounded scans actually prune — and runs
// all of it against every store configuration: the default MemStore, a
// 4-shard MemStore ("sharded"), DiskStore, and a cached MemStore.
// Run under -race to make the backend dimension meaningful.
package indextest

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/version"
)

// Options describes one index class to the suite.
type Options struct {
	// New builds an empty index over s. Required.
	New func(s store.Store) (core.Index, error)
	// Reopen returns a fresh view of idx's current root over the same
	// store with cold decoded-node caches (the package's Load entry
	// point). Required for the pruning assertion; nil skips the tests
	// that need a cold view.
	Reopen func(s store.Store, idx core.Index) (core.Index, error)
	// OrderedIterate marks indexes whose Iterate visits keys in ascending
	// order (everything except the hash-partitioned MBT).
	OrderedIterate bool
	// PrunedRange marks indexes whose Range reads only the nodes
	// overlapping the bounds. Hash-partitioned structures cannot prune —
	// their Range stays correct and ordered but visits every bucket — so
	// they leave this false and skip the node-read assertion.
	PrunedRange bool
	// StructurallyInvariant marks the SIRI candidates: the root hash
	// depends only on the final contents, never on the update history.
	// The MVMB+-Tree baseline leaves it false (the paper's Figure 2).
	StructurallyInvariant bool
	// GoldenRoot is the expected hex root digest after bulk-loading
	// GoldenEntries() into a fresh index. Empty falls back to the
	// CanonicalRoots table keyed by the suite name; set it explicitly when
	// testing a non-canonical configuration, or to "-" to skip.
	GoldenRoot string
	// Loader reattaches to a committed root with the same configuration
	// New uses — the version.Loader the class registers with a repo. Nil
	// skips the secondary-maintenance case, which commits and reopens
	// tables through a version.Repo.
	Loader version.Loader
}

// RunIndexTests runs the full conformance battery for the index class named
// name against every store backend.
func RunIndexTests(t *testing.T, name string, opts Options) {
	t.Helper()
	if opts.New == nil {
		t.Fatal("indextest: Options.New is required")
	}
	cases := []struct {
		name string
		fn   func(*testing.T, string, Options, storeFactory)
	}{
		{"Empty", testEmpty},
		{"PutGetDelete", testPutGetDelete},
		{"EmptyKeyRejected", testEmptyKeyRejected},
		{"BatchSemantics", testBatchSemantics},
		{"IterateOrdering", testIterateOrdering},
		{"RangeBounds", testRangeBounds},
		{"RangeEarlyStop", testRangeEarlyStop},
		{"RangeOracleProperty", testRangeOracleProperty},
		{"RangeOfFallback", testRangeOfFallback},
		{"DiffMerge", testDiffMerge},
		{"Proofs", testProofs},
		{"ReplayDeterminism", testReplayDeterminism},
		{"StructuralInvariance", testStructuralInvariance},
		{"GoldenRoot", testGoldenRoot},
		{"RangePruning", testRangePruning},
		{"SecondaryMaintenance", testSecondaryMaintenance},
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

// backends enumerates the store backends the suite crosses every index
// with — the same four the storetest suite certifies.
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

// newIndex builds a fresh empty index for one subtest.
func newIndex(t *testing.T, opts Options, open storeFactory) core.Index {
	t.Helper()
	idx, err := opts.New(open(t))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return idx
}

// entrySet builds n deterministic entries with distinct sortable keys.
func entrySet(n int) []core.Entry {
	out := make([]core.Entry, n)
	for i := range out {
		out[i] = core.Entry{
			Key:   []byte(fmt.Sprintf("key-%05d", i*3)), // gaps leave room for between-key bounds
			Value: []byte(fmt.Sprintf("value-%05d", i)),
		}
	}
	return out
}

// sortedKeys returns the keys of a string oracle in ascending order.
func sortedKeys(oracle map[string]string) []string {
	keys := make([]string, 0, len(oracle))
	for k := range oracle {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// collectRange runs Range and gathers the emissions as copied pairs.
func collectRange(t *testing.T, idx core.Index, lo, hi []byte) []core.Entry {
	t.Helper()
	r, ok := idx.(core.Ranger)
	if !ok {
		t.Fatalf("%s does not implement core.Ranger", idx.Name())
	}
	var got []core.Entry
	if err := r.Range(lo, hi, func(k, v []byte) bool {
		got = append(got, core.Entry{
			Key:   append([]byte(nil), k...),
			Value: append([]byte(nil), v...),
		})
		return true
	}); err != nil {
		t.Fatalf("Range(%q, %q): %v", lo, hi, err)
	}
	return got
}

// expectRange computes the oracle answer for [lo, hi) in ascending order.
func expectRange(oracle map[string]string, lo, hi []byte) []core.Entry {
	var out []core.Entry
	for _, k := range sortedKeys(oracle) {
		if core.InRange([]byte(k), lo, hi) {
			out = append(out, core.Entry{Key: []byte(k), Value: []byte(oracle[k])})
		}
	}
	return out
}

// checkRange asserts a Range result equals the oracle answer exactly,
// including order.
func checkRange(t *testing.T, label string, got, want []core.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("%s: entry %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

func testEmpty(t *testing.T, _ string, opts Options, open storeFactory) {
	idx := newIndex(t, opts, open)
	if n, err := idx.Count(); err != nil || n != 0 {
		t.Fatalf("Count on empty = %d, %v", n, err)
	}
	if _, ok, err := idx.Get([]byte("absent")); err != nil || ok {
		t.Fatalf("Get on empty = %v, %v", ok, err)
	}
	if err := idx.Iterate(func(_, _ []byte) bool { t.Fatal("Iterate visited an entry"); return false }); err != nil {
		t.Fatalf("Iterate on empty: %v", err)
	}
	if got := collectRange(t, idx, nil, nil); len(got) != 0 {
		t.Fatalf("Range on empty returned %d entries", len(got))
	}
	next, err := idx.Delete([]byte("absent"))
	if err != nil {
		t.Fatalf("Delete absent: %v", err)
	}
	if next.RootHash() != idx.RootHash() {
		t.Fatal("Delete of an absent key changed the root")
	}
}

func testPutGetDelete(t *testing.T, _ string, opts Options, open storeFactory) {
	idx := newIndex(t, opts, open)
	oracle := map[string]string{}
	var err error
	for i := 0; i < 60; i++ {
		k, v := fmt.Sprintf("pgd-%03d", i%40), fmt.Sprintf("v%d", i) // i%40 forces updates
		if idx, err = idx.Put([]byte(k), []byte(v)); err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
		oracle[k] = v
	}
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("pgd-%03d", i*4)
		if idx, err = idx.Delete([]byte(k)); err != nil {
			t.Fatalf("Delete(%s): %v", k, err)
		}
		delete(oracle, k)
	}
	for k, want := range oracle {
		v, ok, err := idx.Get([]byte(k))
		if err != nil || !ok || string(v) != want {
			t.Fatalf("Get(%s) = %q, %v, %v; want %q", k, v, ok, err, want)
		}
	}
	if n, err := idx.Count(); err != nil || n != len(oracle) {
		t.Fatalf("Count = %d, %v; oracle has %d", n, err, len(oracle))
	}
	if pl, err := idx.PathLength([]byte("pgd-001")); err != nil || pl < 1 {
		t.Fatalf("PathLength = %d, %v", pl, err)
	}
}

func testEmptyKeyRejected(t *testing.T, _ string, opts Options, open storeFactory) {
	idx := newIndex(t, opts, open)
	if _, _, err := idx.Get(nil); err == nil {
		t.Fatal("Get(nil key) succeeded")
	}
	if _, err := idx.Put(nil, []byte("v")); err == nil {
		t.Fatal("Put(nil key) succeeded")
	}
	if _, err := idx.Delete([]byte{}); err == nil {
		t.Fatal("Delete(empty key) succeeded")
	}
	if _, err := idx.PutBatch([]core.Entry{{Key: []byte("ok"), Value: []byte("v")}, {Key: nil}}); err == nil {
		t.Fatal("PutBatch with an empty key succeeded")
	}
}

// testBatchSemantics asserts the canonical batch contract SortEntries
// implements: later duplicates win, nil values read back as present empty
// values, and an empty batch returns the receiver unchanged.
func testBatchSemantics(t *testing.T, _ string, opts Options, open storeFactory) {
	idx := newIndex(t, opts, open)
	idx2, err := idx.PutBatch(nil)
	if err != nil {
		t.Fatalf("PutBatch(nil): %v", err)
	}
	if idx2.RootHash() != idx.RootHash() {
		t.Fatal("empty batch changed the root")
	}

	batch := []core.Entry{
		{Key: []byte("dup"), Value: []byte("first")},
		{Key: []byte("solo"), Value: []byte("only")},
		{Key: []byte("dup"), Value: []byte("second")},
		{Key: []byte("nilval"), Value: nil},
		{Key: []byte("dup"), Value: []byte("last")},
	}
	idx, err = idx.PutBatch(batch)
	if err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	if v, ok, err := idx.Get([]byte("dup")); err != nil || !ok || string(v) != "last" {
		t.Fatalf("duplicate key: Get = %q, %v, %v; want the last occurrence", v, ok, err)
	}
	if v, ok, err := idx.Get([]byte("nilval")); err != nil || !ok || len(v) != 0 {
		t.Fatalf("nil value: Get = %q, %v, %v; want present and empty", v, ok, err)
	}
	if n, err := idx.Count(); err != nil || n != 3 {
		t.Fatalf("Count = %d, %v; want 3", n, err)
	}

	// A nil-value put must be indistinguishable from an empty-value put.
	a := newIndex(t, opts, open)
	b := newIndex(t, opts, open)
	if a, err = a.PutBatch([]core.Entry{{Key: []byte("k"), Value: nil}}); err != nil {
		t.Fatal(err)
	}
	if b, err = b.PutBatch([]core.Entry{{Key: []byte("k"), Value: []byte{}}}); err != nil {
		t.Fatal(err)
	}
	if a.RootHash() != b.RootHash() {
		t.Fatal("nil-value and empty-value batches produced different roots")
	}
}

func testIterateOrdering(t *testing.T, _ string, opts Options, open storeFactory) {
	idx := newIndex(t, opts, open)
	entries := entrySet(120)
	// Load in shuffled order so ordering cannot be an insertion artifact.
	shuffled := append([]core.Entry(nil), entries...)
	rng := rand.New(rand.NewSource(11))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	idx, err := idx.PutBatch(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	var keys [][]byte
	if err := idx.Iterate(func(k, _ []byte) bool {
		keys = append(keys, append([]byte(nil), k...))
		return true
	}); err != nil {
		t.Fatalf("Iterate: %v", err)
	}
	if len(keys) != len(entries) {
		t.Fatalf("Iterate visited %d keys, want %d", len(keys), len(entries))
	}
	if opts.OrderedIterate {
		for i := 1; i < len(keys); i++ {
			if bytes.Compare(keys[i-1], keys[i]) >= 0 {
				t.Fatalf("Iterate out of order at %d: %q then %q", i, keys[i-1], keys[i])
			}
		}
	}
	// Early stop: fn false after k visits means exactly k visits.
	visits := 0
	if err := idx.Iterate(func(_, _ []byte) bool { visits++; return visits < 7 }); err != nil {
		t.Fatal(err)
	}
	if visits != 7 {
		t.Fatalf("early-stopped Iterate visited %d entries, want 7", visits)
	}
}

// testRangeBounds drives the half-open [lo, hi) contract through its corner
// cases: nil bounds, bounds between keys, exact keys, inverted and
// degenerate intervals, and bounds beyond either end.
func testRangeBounds(t *testing.T, _ string, opts Options, open storeFactory) {
	idx := newIndex(t, opts, open)
	entries := entrySet(50) // keys key-00000, key-00003, ... key-00147
	idx, err := idx.PutBatch(entries)
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[string]string{}
	for _, e := range entries {
		oracle[string(e.Key)] = string(e.Value)
	}
	k := func(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }
	cases := []struct {
		label  string
		lo, hi []byte
	}{
		{"full", nil, nil},
		{"fromStart", nil, k(60)},
		{"toEnd", k(60), nil},
		{"interior", k(30), k(90)},
		{"exactKeys", k(33), k(36)},   // lo present, hi present: [lo, hi) holds exactly lo
		{"betweenKeys", k(31), k(95)}, // neither bound exists
		{"singleKey", k(42), k(43)},
		{"emptyInterior", k(31), k(32)}, // between two adjacent keys
		{"loEqualsHi", k(30), k(30)},
		{"inverted", k(90), k(30)},
		{"beforeAll", []byte("aaa"), []byte("abc")},
		{"afterAll", []byte("zzz"), nil},
		{"coverAll", []byte("a"), []byte("z")},
		{"emptyHi", k(30), []byte{}},
		{"emptyLo", []byte{}, k(9)},
	}
	for _, tc := range cases {
		got := collectRange(t, idx, tc.lo, tc.hi)
		checkRange(t, tc.label, got, expectRange(oracle, tc.lo, tc.hi))
	}
}

func testRangeEarlyStop(t *testing.T, _ string, opts Options, open storeFactory) {
	idx := newIndex(t, opts, open)
	idx, err := idx.PutBatch(entrySet(40))
	if err != nil {
		t.Fatal(err)
	}
	r := idx.(core.Ranger)
	visits := 0
	var last []byte
	if err := r.Range(nil, nil, func(k, _ []byte) bool {
		visits++
		last = append([]byte(nil), k...)
		return visits < 5
	}); err != nil {
		t.Fatal(err)
	}
	if visits != 5 {
		t.Fatalf("early-stopped Range visited %d entries, want 5", visits)
	}
	// The five visited entries are the five smallest keys.
	want := []byte(fmt.Sprintf("key-%05d", 4*3))
	if !bytes.Equal(last, want) {
		t.Fatalf("fifth Range key = %q, want %q", last, want)
	}
}

// testRangeOracleProperty is the randomized half of the contract: random
// entry sets, random bounds (drawn both from existing keys and from thin
// air), Range must equal the filtered sorted oracle exactly.
func testRangeOracleProperty(t *testing.T, _ string, opts Options, open storeFactory) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 3; round++ {
		idx := newIndex(t, opts, open)
		oracle := map[string]string{}
		n := 40 + rng.Intn(160)
		batch := make([]core.Entry, 0, n)
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("%04x", rng.Intn(0xFFFF))
			v := fmt.Sprintf("v%d-%d", round, i)
			batch = append(batch, core.Entry{Key: []byte(k), Value: []byte(v)})
			oracle[k] = v
		}
		// Duplicates inside the batch: the oracle map naturally keeps the
		// last, and so must the index.
		idx, err := idx.PutBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		bound := func() []byte {
			switch rng.Intn(4) {
			case 0:
				return nil
			case 1: // an existing key
				return batch[rng.Intn(len(batch))].Key
			default: // arbitrary point in the space
				return []byte(fmt.Sprintf("%04x", rng.Intn(0xFFFF)))
			}
		}
		for trial := 0; trial < 25; trial++ {
			lo, hi := bound(), bound()
			got := collectRange(t, idx, lo, hi)
			checkRange(t, fmt.Sprintf("round %d trial %d [%q,%q)", round, trial, lo, hi),
				got, expectRange(oracle, lo, hi))
		}
	}
}

// iterOnly hides the Ranger capability so RangeOf exercises its fallback.
type iterOnly struct{ core.Index }

// testRangeOfFallback pins the generic Iterate-based fallback to the native
// Range: same bounds, same ordered result.
func testRangeOfFallback(t *testing.T, _ string, opts Options, open storeFactory) {
	idx := newIndex(t, opts, open)
	idx, err := idx.PutBatch(entrySet(60))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := []byte("key-00030"), []byte("key-00120")
	native := collectRange(t, idx, lo, hi)
	var fallback []core.Entry
	if err := core.RangeOf(iterOnly{idx}, lo, hi, func(k, v []byte) bool {
		fallback = append(fallback, core.Entry{
			Key:   append([]byte(nil), k...),
			Value: append([]byte(nil), v...),
		})
		return true
	}); err != nil {
		t.Fatalf("RangeOf fallback: %v", err)
	}
	checkRange(t, "fallback vs native", fallback, native)
}

func testDiffMerge(t *testing.T, _ string, opts Options, open storeFactory) {
	s := open(t)
	base, err := opts.New(s)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := base.PutBatch(entrySet(30))
	if err != nil {
		t.Fatal(err)
	}
	left, err := idx.Put([]byte("left-only"), []byte("L"))
	if err != nil {
		t.Fatal(err)
	}
	right, err := idx.Put([]byte("right-only"), []byte("R"))
	if err != nil {
		t.Fatal(err)
	}
	right, err = right.Put([]byte("key-00000"), []byte("changed"))
	if err != nil {
		t.Fatal(err)
	}

	diffs, err := left.Diff(right)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	byKey := map[string]core.DiffEntry{}
	for _, d := range diffs {
		byKey[string(d.Key)] = d
	}
	if len(diffs) != 3 {
		t.Fatalf("Diff returned %d entries, want 3: %v", len(diffs), diffs)
	}
	if d := byKey["left-only"]; string(d.Left) != "L" || d.Right != nil {
		t.Fatalf("left-only diff = %+v", d)
	}
	if d := byKey["right-only"]; d.Left != nil || string(d.Right) != "R" {
		t.Fatalf("right-only diff = %+v", d)
	}
	if d := byKey["key-00000"]; string(d.Left) != "value-00000" || string(d.Right) != "changed" {
		t.Fatalf("changed-key diff = %+v", d)
	}

	merged, err := core.Merge(left, right, core.TakeRight)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	for k, want := range map[string]string{
		"left-only": "L", "right-only": "R", "key-00000": "changed",
	} {
		v, ok, err := merged.Get([]byte(k))
		if err != nil || !ok || string(v) != want {
			t.Fatalf("merged Get(%s) = %q, %v, %v; want %q", k, v, ok, err, want)
		}
	}
}

func testProofs(t *testing.T, _ string, opts Options, open storeFactory) {
	idx := newIndex(t, opts, open)
	idx, err := idx.PutBatch(entrySet(40))
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("key-00030")
	proof, err := idx.Prove(key)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	if err := idx.VerifyProof(idx.RootHash(), proof); err != nil {
		t.Fatalf("VerifyProof of an honest proof: %v", err)
	}
	// Tampering with the value must break verification.
	tampered := *proof
	tampered.Value = append([]byte(nil), proof.Value...)
	tampered.Value[0] ^= 0xFF
	if err := idx.VerifyProof(idx.RootHash(), &tampered); err == nil {
		t.Fatal("VerifyProof accepted a tampered value")
	}
	// A proof verified against the wrong root must fail too.
	other, err := idx.Put([]byte("key-00030"), []byte("rewritten"))
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.VerifyProof(other.RootHash(), proof); err == nil {
		t.Fatal("VerifyProof accepted a stale proof against a new root")
	}
	if _, err := idx.Prove([]byte("no-such-key")); err == nil {
		t.Fatal("Prove of an absent key succeeded")
	}
}

// testReplayDeterminism holds for every index, history-dependent or not:
// two replicas applying the identical operation sequence agree on every
// intermediate root.
func testReplayDeterminism(t *testing.T, _ string, opts Options, open storeFactory) {
	a := newIndex(t, opts, open)
	b := newIndex(t, opts, open)
	rng := rand.New(rand.NewSource(23))
	var err error
	for i := 0; i < 60; i++ {
		k := []byte(fmt.Sprintf("rd-%03d", rng.Intn(40)))
		switch rng.Intn(3) {
		case 0:
			v := []byte(fmt.Sprintf("v%d", i))
			if a, err = a.Put(k, v); err != nil {
				t.Fatal(err)
			}
			if b, err = b.Put(k, v); err != nil {
				t.Fatal(err)
			}
		case 1:
			if a, err = a.Delete(k); err != nil {
				t.Fatal(err)
			}
			if b, err = b.Delete(k); err != nil {
				t.Fatal(err)
			}
		default:
			batch := []core.Entry{
				{Key: k, Value: []byte(fmt.Sprintf("b%d", i))},
				{Key: []byte(fmt.Sprintf("rd-%03d", rng.Intn(40))), Value: []byte("x")},
			}
			if a, err = a.PutBatch(batch); err != nil {
				t.Fatal(err)
			}
			if b, err = b.PutBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		if a.RootHash() != b.RootHash() {
			t.Fatalf("replicas diverged after op %d", i)
		}
	}
}

// testStructuralInvariance is the stronger property only the SIRI
// candidates hold: an index grown through per-op history hashes identically
// to one bulk-loaded with the final contents.
func testStructuralInvariance(t *testing.T, _ string, opts Options, open storeFactory) {
	if !opts.StructurallyInvariant {
		t.Skip("index class is history-dependent by design")
	}
	grown := newIndex(t, opts, open)
	oracle := map[string]string{}
	rng := rand.New(rand.NewSource(31))
	var err error
	for i := 0; i < 80; i++ {
		k := fmt.Sprintf("si-%03d", rng.Intn(50))
		if rng.Intn(4) == 0 {
			if grown, err = grown.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			delete(oracle, k)
			continue
		}
		v := fmt.Sprintf("v%d", i)
		if grown, err = grown.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		oracle[k] = v
	}
	final := make([]core.Entry, 0, len(oracle))
	for _, k := range sortedKeys(oracle) {
		final = append(final, core.Entry{Key: []byte(k), Value: []byte(oracle[k])})
	}
	fresh := newIndex(t, opts, open)
	if fresh, err = fresh.PutBatch(final); err != nil {
		t.Fatal(err)
	}
	if grown.RootHash() != fresh.RootHash() {
		t.Fatalf("structural invariance violated: grown %v != bulk %v",
			grown.RootHash(), fresh.RootHash())
	}
}

// testGoldenRoot pins the byte-level encoding: a fixed entry set must hash
// to the committed digest, so accidental encoding changes fail loudly.
func testGoldenRoot(t *testing.T, name string, opts Options, open storeFactory) {
	want := opts.GoldenRoot
	if want == "" {
		want = CanonicalRoots[name]
	}
	if want == "" || want == "-" {
		t.Skip("no golden root committed for this configuration")
	}
	idx := newIndex(t, opts, open)
	idx, err := idx.PutBatch(GoldenEntries())
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.RootHash().Hex(); got != want {
		t.Fatalf("golden root mismatch: got %s, want %s\n(an intentional encoding change must update the committed vector)", got, want)
	}
}

// testRangePruning is the acceptance assertion for the ordered indexes: a
// narrow scan over a cold view must read a small fraction of the
// structure's nodes — o(total), not a filtered full scan. Node reads are
// measured with store.CountingStore, the same counter the planner honesty
// battery (internal/query/plantest) builds on.
func testRangePruning(t *testing.T, _ string, opts Options, open storeFactory) {
	if !opts.PrunedRange {
		t.Skip("index class cannot prune range scans (hash-partitioned)")
	}
	if opts.Reopen == nil {
		t.Skip("no Reopen hook; cannot build a cold view")
	}
	cs := store.NewCountingStore(open(t))
	idx, err := opts.New(cs)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1200
	entries := make([]core.Entry, n)
	for i := range entries {
		entries[i] = core.Entry{
			Key:   []byte(fmt.Sprintf("prune-%06d", i)),
			Value: bytes.Repeat([]byte{byte(i)}, 60+i%40),
		}
	}
	idx, err = idx.PutBatch(entries)
	if err != nil {
		t.Fatal(err)
	}
	total := cs.Stats().UniqueNodes
	if total < 20 {
		t.Fatalf("dataset produced only %d nodes; the assertion would be vacuous", total)
	}

	// A cold view: fresh decoded-node caches, every node visit hits the
	// store and therefore the counter.
	cold, err := opts.Reopen(cs, idx)
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if cold.RootHash() != idx.RootHash() {
		t.Fatal("Reopen changed the root")
	}
	lo, hi := entries[600].Key, entries[612].Key
	before := cs.NodeReads()
	got := collectRange(t, cold, lo, hi)
	reads := cs.NodeReads() - before
	if len(got) != 612-600 {
		t.Fatalf("narrow scan returned %d entries, want %d", len(got), 612-600)
	}
	if reads == 0 {
		t.Fatal("narrow scan read no nodes; the counter is not wired up")
	}
	if reads*5 > total {
		t.Fatalf("narrow scan read %d of %d nodes (> 20%%); Range is not pruning", reads, total)
	}
}
