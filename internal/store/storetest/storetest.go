// Package storetest provides the conformance suite every store.Store
// implementation must pass. A backend wires itself in with one line:
//
//	storetest.RunStoreTests(t, func(t *testing.T) store.Store { return store.NewMemStore() })
//
// The suite pins down the contract the index structures and the paper's
// storage figures rely on: content addressing, dedup accounting
// (UniqueBytes ≤ RawBytes, DedupHits = RawNodes − UniqueNodes), buffer
// ownership, miss counting, safety under concurrent Put/Get (run the suite
// under -race to make that part meaningful), and — for stores exposing the
// Deleter/Sweeper reclamation capability — delete-then-get semantics and
// live-set preservation under Sweep, the store half of the version GC.
package storetest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/hash"
	"repro/internal/store"
	"repro/internal/store/faultstore"
)

// Factory returns a fresh empty store for one (sub)test. Implementations
// needing cleanup should register it with t.Cleanup.
type Factory func(t *testing.T) store.Store

// RunStoreTests runs the full conformance suite against stores produced by
// newStore.
func RunStoreTests(t *testing.T, newStore Factory) {
	t.Helper()
	tests := []struct {
		name string
		fn   func(*testing.T, Factory)
	}{
		{"PutGetRoundTrip", testPutGetRoundTrip},
		{"GetMissing", testGetMissing},
		{"HasSemantics", testHasSemantics},
		{"DedupAccounting", testDedupAccounting},
		{"CopiesCallerBuffer", testCopiesCallerBuffer},
		{"EmptyValue", testEmptyValue},
		{"ManyNodes", testManyNodes},
		{"StatsInvariantsProperty", testStatsInvariantsProperty},
		{"ConcurrentPutGet", testConcurrentPutGet},
		{"ConcurrentDedup", testConcurrentDedup},
		{"PutBatchMatchesSequentialPut", testPutBatchMatchesSequentialPut},
		{"PutBatchHashed", testPutBatchHashed},
		{"PutBatchEmpty", testPutBatchEmpty},
		{"ConcurrentPutBatch", testConcurrentPutBatch},
		{"DeleteThenGet", testDeleteThenGet},
		{"DeleteReput", testDeleteReput},
		{"SweepPreservesLiveSet", testSweepPreservesLiveSet},
		{"SweepEverything", testSweepEverything},
		{"SweepKeepsConcurrentReadsSafe", testSweepKeepsConcurrentReadsSafe},
		{"BarrierProtectsNewWrites", testBarrierProtectsNewWrites},
		{"BarrierRecordsDedupHits", testBarrierRecordsDedupHits},
		{"BarrierRecordsBatches", testBarrierRecordsBatches},
		{"BarrierArmSemantics", testBarrierArmSemantics},
		{"BarrierKeepsConcurrentWritesSafe", testBarrierKeepsConcurrentWritesSafe},
		{"CloseStability", testCloseStability},
		{"TransientPutRetryNoGhosts", testTransientPutRetryNoGhosts},
		{"SweepFaultLeavesUsageConsistent", testSweepFaultLeavesUsageConsistent},
		{"UsableAfterNoSpaceWindow", testUsableAfterNoSpaceWindow},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) { tc.fn(t, newStore) })
	}
}

func testPutGetRoundTrip(t *testing.T, newStore Factory) {
	s := newStore(t)
	data := []byte("node contents")
	h := s.Put(data)
	if h != hash.Of(data) {
		t.Fatalf("Put returned %v, want the content digest", h)
	}
	got, ok := s.Get(h)
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
}

func testGetMissing(t *testing.T, newStore Factory) {
	s := newStore(t)
	if _, ok := s.Get(hash.Of([]byte("absent"))); ok {
		t.Fatal("Get on empty store returned ok")
	}
	st := s.Stats()
	if st.Gets != 1 || st.Misses != 1 {
		t.Fatalf("stats after one miss = %+v", st)
	}
}

func testHasSemantics(t *testing.T, newStore Factory) {
	s := newStore(t)
	h := s.Put([]byte("present"))
	if !s.Has(h) {
		t.Fatal("Has = false after Put")
	}
	if s.Has(hash.Of([]byte("absent"))) {
		t.Fatal("Has = true for absent node")
	}
	// Has must not disturb the Get/Miss counters.
	if st := s.Stats(); st.Gets != 0 || st.Misses != 0 {
		t.Fatalf("Has moved the Get counters: %+v", st)
	}
}

func testDedupAccounting(t *testing.T, newStore Factory) {
	s := newStore(t)
	data := []byte("same node")
	h1 := s.Put(data)
	h2 := s.Put(data)
	if h1 != h2 {
		t.Fatal("identical content produced different hashes")
	}
	st := s.Stats()
	if st.UniqueNodes != 1 || st.RawNodes != 2 || st.DedupHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.UniqueBytes != int64(len(data)) || st.RawBytes != 2*int64(len(data)) {
		t.Fatalf("byte accounting = %+v", st)
	}
}

func testCopiesCallerBuffer(t *testing.T, newStore Factory) {
	s := newStore(t)
	buf := []byte("mutate me")
	want := append([]byte(nil), buf...)
	h := s.Put(buf)
	buf[0] = 'X'
	got, ok := s.Get(h)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("store aliases the caller buffer: got %q", got)
	}
}

func testEmptyValue(t *testing.T, newStore Factory) {
	s := newStore(t)
	h := s.Put(nil)
	if h != hash.Of(nil) {
		t.Fatalf("Put(nil) hash = %v", h)
	}
	got, ok := s.Get(h)
	if !ok || len(got) != 0 {
		t.Fatalf("Get of empty node = %q, %v", got, ok)
	}
	if !s.Has(h) {
		t.Fatal("Has = false for empty node")
	}
}

func testManyNodes(t *testing.T, newStore Factory) {
	s := newStore(t)
	const n = 500
	hs := make([]hash.Hash, n)
	var bytesTotal int64
	for i := 0; i < n; i++ {
		data := blob(i)
		hs[i] = s.Put(data)
		bytesTotal += int64(len(data))
	}
	for i, h := range hs {
		got, ok := s.Get(h)
		if !ok || !bytes.Equal(got, blob(i)) {
			t.Fatalf("node %d: Get = %q, %v", i, got, ok)
		}
	}
	st := s.Stats()
	if st.UniqueNodes != n || st.UniqueBytes != bytesTotal {
		t.Fatalf("stats after %d distinct nodes = %+v", n, st)
	}
}

func testStatsInvariantsProperty(t *testing.T, newStore Factory) {
	f := func(blobs [][]byte) bool {
		s := newStore(t)
		for _, b := range blobs {
			s.Put(b)
		}
		st := s.Stats()
		return st.UniqueBytes <= st.RawBytes && st.UniqueNodes <= st.RawNodes &&
			st.DedupHits == st.RawNodes-st.UniqueNodes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func testConcurrentPutGet(t *testing.T, newStore Factory) {
	s := newStore(t)
	const workers, perWorker = 8, 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				data := []byte(fmt.Sprintf("w%d-i%d", w%4, i)) // overlap across workers
				h := s.Put(data)
				if got, ok := s.Get(h); !ok || !bytes.Equal(got, data) {
					t.Errorf("Get after Put failed for %q", data)
					return
				}
				if !s.Has(h) {
					t.Errorf("Has after Put failed for %q", data)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := s.Stats(); st.UniqueNodes != 4*perWorker {
		t.Fatalf("UniqueNodes = %d, want %d", st.UniqueNodes, 4*perWorker)
	}
}

func testConcurrentDedup(t *testing.T, newStore Factory) {
	s := newStore(t)
	const workers, blobs = 8, 64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < blobs; i++ {
				s.Put(blob(i)) // every worker writes the same set
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.UniqueNodes != blobs {
		t.Fatalf("UniqueNodes = %d, want %d", st.UniqueNodes, blobs)
	}
	if st.RawNodes != workers*blobs {
		t.Fatalf("RawNodes = %d, want %d", st.RawNodes, workers*blobs)
	}
	if st.DedupHits != st.RawNodes-st.UniqueNodes {
		t.Fatalf("DedupHits = %d, want %d", st.DedupHits, st.RawNodes-st.UniqueNodes)
	}
}

// batchItems builds a batch with intra-batch duplicates (every third item
// repeats) so the dedup accounting of the batch path is exercised.
func batchItems(n int) [][]byte {
	items := make([][]byte, n)
	for i := range items {
		items[i] = blob(i - i%3)
	}
	return items
}

func testPutBatchMatchesSequentialPut(t *testing.T, newStore Factory) {
	items := batchItems(60)

	seq := newStore(t)
	seqHashes := make([]hash.Hash, len(items))
	for i, it := range items {
		seqHashes[i] = seq.Put(it)
	}

	batched := newStore(t)
	gotHashes := store.PutBatch(batched, items)
	if len(gotHashes) != len(items) {
		t.Fatalf("PutBatch returned %d hashes for %d items", len(gotHashes), len(items))
	}
	for i := range items {
		if gotHashes[i] != seqHashes[i] {
			t.Fatalf("item %d: PutBatch hash %v != Put hash %v", i, gotHashes[i], seqHashes[i])
		}
		got, ok := batched.Get(gotHashes[i])
		if !ok || !bytes.Equal(got, items[i]) {
			t.Fatalf("item %d: Get after PutBatch = %q, %v", i, got, ok)
		}
	}

	// The batch path must account exactly like the sequential path
	// (ignoring the Get counters the verification loop above moved).
	ss, bs := seq.Stats(), batched.Stats()
	ss.Gets, ss.Misses, bs.Gets, bs.Misses = 0, 0, 0, 0
	if ss != bs {
		t.Fatalf("stats diverge:\n  sequential: %+v\n  batched:    %+v", ss, bs)
	}
}

func testPutBatchHashed(t *testing.T, newStore Factory) {
	s := newStore(t)
	hb, ok := s.(store.HashedBatcher)
	if !ok {
		t.Skip("store does not implement HashedBatcher")
	}
	items := batchItems(30)
	hashes := make([]hash.Hash, len(items))
	for i, it := range items {
		hashes[i] = hash.Of(it)
	}
	hb.PutBatchHashed(hashes, items)
	for i, h := range hashes {
		got, ok := s.Get(h)
		if !ok || !bytes.Equal(got, items[i]) {
			t.Fatalf("item %d: Get after PutBatchHashed = %q, %v", i, got, ok)
		}
	}
	st := s.Stats()
	if st.RawNodes != int64(len(items)) || st.DedupHits != st.RawNodes-st.UniqueNodes {
		t.Fatalf("stats after PutBatchHashed = %+v", st)
	}
}

func testPutBatchEmpty(t *testing.T, newStore Factory) {
	s := newStore(t)
	if hs := store.PutBatch(s, nil); len(hs) != 0 {
		t.Fatalf("PutBatch(nil) returned %d hashes", len(hs))
	}
	if st := s.Stats(); st.RawNodes != 0 {
		t.Fatalf("empty batch moved counters: %+v", st)
	}
}

func testConcurrentPutBatch(t *testing.T, newStore Factory) {
	s := newStore(t)
	const workers, blobs = 8, 64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			items := make([][]byte, blobs)
			for i := range items {
				items[i] = blob(i) // every worker writes the same set
			}
			hs := store.PutBatch(s, items)
			for i, h := range hs {
				if got, ok := s.Get(h); !ok || !bytes.Equal(got, items[i]) {
					t.Errorf("Get after concurrent PutBatch failed for item %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.UniqueNodes != blobs {
		t.Fatalf("UniqueNodes = %d, want %d", st.UniqueNodes, blobs)
	}
	if st.RawNodes != workers*blobs || st.DedupHits != st.RawNodes-st.UniqueNodes {
		t.Fatalf("stats after concurrent batches = %+v", st)
	}
}

// sweepable returns s if it supports delete/sweep, skipping the subtest for
// foreign stores without the capability (MemStore, DiskStore and the
// wrappers over them all have it).
func sweepable(t *testing.T, s store.Store) store.Store {
	t.Helper()
	if _, ok := s.(store.Sweeper); !ok {
		t.Skip("store does not implement Sweeper")
	}
	if _, ok := s.(store.Deleter); !ok {
		t.Skip("store does not implement Deleter")
	}
	return s
}

func testDeleteThenGet(t *testing.T, newStore Factory) {
	s := sweepable(t, newStore(t))
	data := []byte("condemned node")
	h := s.Put(data)
	keep := s.Put([]byte("survivor"))

	ok, err := store.Delete(s, h)
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v; want true, nil", ok, err)
	}
	if _, ok := s.Get(h); ok {
		t.Fatal("Get served a deleted node")
	}
	if s.Has(h) {
		t.Fatal("Has = true for a deleted node")
	}
	if got, ok := s.Get(keep); !ok || !bytes.Equal(got, []byte("survivor")) {
		t.Fatalf("unrelated node disturbed by Delete: %q, %v", got, ok)
	}
	// Deleting an absent node is a reported no-op.
	if ok, err := store.Delete(s, hash.Of([]byte("never stored"))); err != nil || ok {
		t.Fatalf("Delete of absent node = %v, %v; want false, nil", ok, err)
	}
	// The unique footprint shrinks; raw history is preserved.
	st := s.Stats()
	if st.UniqueNodes != 1 || st.UniqueBytes != int64(len("survivor")) {
		t.Fatalf("unique footprint after delete = %+v", st)
	}
	if st.RawNodes != 2 {
		t.Fatalf("raw history after delete = %+v", st)
	}
}

func testDeleteReput(t *testing.T, newStore Factory) {
	s := sweepable(t, newStore(t))
	data := []byte("comes back")
	h := s.Put(data)
	if ok, err := store.Delete(s, h); err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if h2 := s.Put(data); h2 != h {
		t.Fatalf("re-Put hash changed: %v != %v", h2, h)
	}
	got, ok := s.Get(h)
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("Get after delete+re-Put = %q, %v", got, ok)
	}
	if st := s.Stats(); st.UniqueNodes != 1 {
		t.Fatalf("unique count after delete+re-Put = %+v", st)
	}
}

func testSweepPreservesLiveSet(t *testing.T, newStore Factory) {
	s := sweepable(t, newStore(t))
	const n = 200
	hs := make([]hash.Hash, n)
	live := make(map[hash.Hash]bool)
	var liveBytes, deadBytes int64
	for i := 0; i < n; i++ {
		data := blob(i)
		hs[i] = s.Put(data)
		if i%3 == 0 {
			live[hs[i]] = true
			liveBytes += int64(len(data))
		} else {
			deadBytes += int64(len(data))
		}
	}
	st, err := store.Sweep(s, func(h hash.Hash) bool { return live[h] })
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	wantLive := int64(len(live))
	if st.LiveNodes != wantLive || st.SweptNodes != n-wantLive {
		t.Fatalf("sweep counts = %+v, want %d live / %d swept", st, wantLive, n-wantLive)
	}
	if st.LiveBytes != liveBytes || st.SweptBytes != deadBytes {
		t.Fatalf("sweep bytes = %+v, want %d live / %d dead", st, liveBytes, deadBytes)
	}
	for i, h := range hs {
		got, ok := s.Get(h)
		if live[h] {
			if !ok || !bytes.Equal(got, blob(i)) {
				t.Fatalf("live node %d lost by sweep: %q, %v", i, got, ok)
			}
		} else if ok {
			t.Fatalf("dead node %d survived sweep", i)
		}
	}
	if ss := s.Stats(); ss.UniqueNodes != wantLive || ss.UniqueBytes != liveBytes {
		t.Fatalf("unique footprint after sweep = %+v", ss)
	}
}

func testSweepEverything(t *testing.T, newStore Factory) {
	s := sweepable(t, newStore(t))
	for i := 0; i < 50; i++ {
		s.Put(blob(i))
	}
	st, err := store.Sweep(s, func(hash.Hash) bool { return false })
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if st.LiveNodes != 0 || st.SweptNodes != 50 {
		t.Fatalf("sweep-everything counts = %+v", st)
	}
	if ss := s.Stats(); ss.UniqueNodes != 0 || ss.UniqueBytes != 0 {
		t.Fatalf("unique footprint after full sweep = %+v", ss)
	}
	// The store is still usable: a fresh Put round-trips.
	h := s.Put([]byte("afterlife"))
	if got, ok := s.Get(h); !ok || !bytes.Equal(got, []byte("afterlife")) {
		t.Fatalf("Put after full sweep = %q, %v", got, ok)
	}
}

// testSweepKeepsConcurrentReadsSafe hammers Get on retained nodes while a
// sweep removes the rest — the reader side of the GC contract (writers must
// be quiesced; readers of live nodes need not be). Run under -race.
func testSweepKeepsConcurrentReadsSafe(t *testing.T, newStore Factory) {
	s := sweepable(t, newStore(t))
	const n = 300
	liveHashes := make([]hash.Hash, 0, n/2)
	live := make(map[hash.Hash]bool)
	for i := 0; i < n; i++ {
		h := s.Put(blob(i))
		if i%2 == 0 {
			liveHashes = append(liveHashes, h)
			live[h] = true
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 200; r++ {
				h := liveHashes[(w*131+r)%len(liveHashes)]
				if _, ok := s.Get(h); !ok {
					t.Errorf("live node vanished during sweep")
					return
				}
			}
		}(w)
	}
	if _, err := store.Sweep(s, func(h hash.Hash) bool { return live[h] }); err != nil {
		t.Errorf("Sweep: %v", err)
	}
	wg.Wait()
}

// barrierStore skips the test unless s supports the write barrier (and
// sweeping, which the barrier exists to make concurrency-safe).
func barrierStore(t *testing.T, s store.Store) store.Store {
	t.Helper()
	s = sweepable(t, s)
	if _, ok := s.(store.BarrierStore); !ok {
		t.Skip("store does not implement BarrierStore")
	}
	return s
}

// testBarrierProtectsNewWrites pins the core barrier guarantee: a node
// written after the barrier is armed survives a sweep whose predicate
// rejects it, and is reclaimed normally once the barrier is disarmed.
func testBarrierProtectsNewWrites(t *testing.T, newStore Factory) {
	s := barrierStore(t, newStore(t))
	old := s.Put([]byte("pre-barrier node"))
	bar, err := store.ArmBarrier(s)
	if err != nil {
		t.Fatalf("ArmBarrier: %v", err)
	}
	fresh := s.Put([]byte("post-barrier node"))
	if !bar.Has(fresh) {
		t.Fatal("barrier did not record a Put made while armed")
	}
	if bar.Has(old) {
		t.Fatal("barrier recorded a Put made before it was armed")
	}
	st, err := store.Sweep(s, func(hash.Hash) bool { return false })
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if st.LiveNodes != 1 || st.SweptNodes != 1 {
		t.Fatalf("sweep counts with armed barrier = %+v, want 1 live / 1 swept", st)
	}
	if _, ok := s.Get(fresh); !ok {
		t.Fatal("node written under the armed barrier was swept")
	}
	if _, ok := s.Get(old); ok {
		t.Fatal("pre-barrier dead node survived the sweep")
	}
	store.DisarmBarrier(s)
	if _, err := store.Sweep(s, func(hash.Hash) bool { return false }); err != nil {
		t.Fatalf("Sweep after disarm: %v", err)
	}
	if _, ok := s.Get(fresh); ok {
		t.Fatal("node survived a sweep after the barrier was disarmed")
	}
}

// testBarrierRecordsDedupHits covers the dedup-vs-GC race: re-putting
// content byte-identical to a doomed node must mark it live for the pass,
// or the new writer's "stored" node vanishes under it.
func testBarrierRecordsDedupHits(t *testing.T, newStore Factory) {
	s := barrierStore(t, newStore(t))
	h := s.Put([]byte("shared content"))
	bar, err := store.ArmBarrier(s)
	if err != nil {
		t.Fatalf("ArmBarrier: %v", err)
	}
	defer store.DisarmBarrier(s)
	if got := s.Put([]byte("shared content")); got != h {
		t.Fatalf("dedup re-put returned %v, want %v", got, h)
	}
	if !bar.Has(h) {
		t.Fatal("barrier did not record the dedup hit")
	}
	if _, err := store.Sweep(s, func(hash.Hash) bool { return false }); err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if _, ok := s.Get(h); !ok {
		t.Fatal("deduplicated re-put was swept despite the armed barrier")
	}
}

// testBarrierRecordsBatches verifies both batch write paths record while
// armed.
func testBarrierRecordsBatches(t *testing.T, newStore Factory) {
	s := barrierStore(t, newStore(t))
	bar, err := store.ArmBarrier(s)
	if err != nil {
		t.Fatalf("ArmBarrier: %v", err)
	}
	defer store.DisarmBarrier(s)
	items := make([][]byte, 40)
	for i := range items {
		items[i] = blob(i)
	}
	hs := store.PutBatch(s, items[:20])
	hashed := make([]hash.Hash, 20)
	for i, it := range items[20:] {
		hashed[i] = hash.Of(it)
	}
	store.PutBatchHashed(s, hashed, items[20:])
	hs = append(hs, hashed...)
	for i, h := range hs {
		if !bar.Has(h) {
			t.Fatalf("barrier missed batch item %d", i)
		}
	}
	if _, err := store.Sweep(s, func(hash.Hash) bool { return false }); err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	for i, h := range hs {
		if _, ok := s.Get(h); !ok {
			t.Fatalf("batch item %d written under the barrier was swept", i)
		}
	}
}

// testBarrierArmSemantics pins down the one-armed-barrier rule.
func testBarrierArmSemantics(t *testing.T, newStore Factory) {
	s := barrierStore(t, newStore(t))
	if _, err := store.ArmBarrier(s); err != nil {
		t.Fatalf("first ArmBarrier: %v", err)
	}
	if _, err := store.ArmBarrier(s); !errors.Is(err, store.ErrBarrierArmed) {
		t.Fatalf("second ArmBarrier = %v, want ErrBarrierArmed", err)
	}
	store.DisarmBarrier(s)
	store.DisarmBarrier(s) // disarming an unarmed store is a no-op
	bar, err := store.ArmBarrier(s)
	if err != nil {
		t.Fatalf("re-ArmBarrier after disarm: %v", err)
	}
	if bar.Len() != 0 {
		t.Fatalf("fresh barrier is not empty: %d digests", bar.Len())
	}
	store.DisarmBarrier(s)
}

// testBarrierKeepsConcurrentWritesSafe races writers against a sweep with
// the barrier armed: every node written while armed must be readable after
// the sweep, whichever side of the pass each write landed on. Run under
// -race.
func testBarrierKeepsConcurrentWritesSafe(t *testing.T, newStore Factory) {
	s := barrierStore(t, newStore(t))
	for i := 0; i < 200; i++ {
		s.Put(blob(i)) // dead weight for the sweep to chew through
	}
	if _, err := store.ArmBarrier(s); err != nil {
		t.Fatalf("ArmBarrier: %v", err)
	}
	defer store.DisarmBarrier(s)
	const writers, perWriter = 4, 100
	written := make([][]hash.Hash, writers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				data := []byte(fmt.Sprintf("writer-%d-item-%04d", w, i))
				if i%10 == 0 {
					hs := store.PutBatch(s, [][]byte{data})
					written[w] = append(written[w], hs[0])
					continue
				}
				written[w] = append(written[w], s.Put(data))
			}
		}(w)
	}
	close(start)
	if _, err := store.Sweep(s, func(hash.Hash) bool { return false }); err != nil {
		t.Errorf("Sweep: %v", err)
	}
	wg.Wait()
	for w := range written {
		for i, h := range written[w] {
			if _, ok := s.Get(h); !ok {
				t.Fatalf("writer %d item %d vanished during the armed sweep", w, i)
			}
		}
	}
}

// testCloseStability pins the after-Close contract for closeable stores:
// no operation panics, and every operation's outcome — data or error — is
// the same on repeated calls. A half-torn-down store that answers
// differently each time is the failure mode this rules out; whether an op
// errors or degrades to a miss is the backend's choice (an in-memory store
// closes to a no-op, a disk store reports its closed state).
func testCloseStability(t *testing.T, newStore Factory) {
	s := newStore(t)
	c, ok := s.(io.Closer)
	if !ok {
		t.Skip("store does not implement io.Closer")
	}
	data := []byte("written before close")
	h := s.Put(data)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s.Put([]byte("written after close")) // must not panic
	got1, ok1 := s.Get(h)
	got2, ok2 := s.Get(h)
	if ok1 != ok2 || !bytes.Equal(got1, got2) {
		t.Fatalf("Get after Close unstable: (%q,%v) then (%q,%v)", got1, ok1, got2, ok2)
	}
	if ok1 && !bytes.Equal(got1, data) {
		t.Fatalf("Get after Close returned wrong data: %q", got1)
	}
	sameErr := func(op string, f func() error) {
		e1, e2 := f(), f()
		if (e1 == nil) != (e2 == nil) || (e1 != nil && e1.Error() != e2.Error()) {
			t.Fatalf("%s after Close unstable: %v then %v", op, e1, e2)
		}
	}
	if _, ok := s.(store.Deleter); ok {
		sameErr("Delete", func() error { _, err := store.Delete(s, h); return err })
	}
	if _, ok := s.(store.Sweeper); ok {
		sameErr("Sweep", func() error {
			_, err := store.Sweep(s, func(hash.Hash) bool { return true })
			return err
		})
	}
	sameErr("Flush", func() error { return store.Flush(s) })
	sameErr("Close", c.Close) // double Close is stable, not a panic
}

// testTransientPutRetryNoGhosts drives the factory's store through a fault
// injector that drops every second Put, retries each dropped write, and
// checks the store ends bit-for-bit and counter-for-counter as if no fault
// had happened: every node readable, no ghost records, dedup accounting
// intact. This is the write-side recovery contract the version layer's
// commit retry leans on.
func testTransientPutRetryNoGhosts(t *testing.T, newStore Factory) {
	s := newStore(t)
	fs := faultstore.Wrap(s, faultstore.Config{PutFailEvery: 2})
	const n = 40
	hs := make([]hash.Hash, n)
	for i := 0; i < n; i++ {
		data := blob(i)
		hs[i] = fs.Put(data)
		for !fs.Has(hs[i]) { // Has is never faulted: it reports base truth
			fs.Put(data)
		}
	}
	if drops := fs.Counters().PutDrops; drops == 0 {
		t.Fatal("injector dropped nothing; the test exercised no fault")
	}
	for i, h := range hs {
		got, ok := s.Get(h)
		if !ok || !bytes.Equal(got, blob(i)) {
			t.Fatalf("node %d missing or corrupt after drop+retry: %q, %v", i, got, ok)
		}
	}
	st := s.Stats()
	if st.UniqueNodes != n {
		t.Fatalf("UniqueNodes = %d after retries, want %d (ghost or lost records)", st.UniqueNodes, n)
	}
	if st.DedupHits != st.RawNodes-st.UniqueNodes {
		t.Fatalf("dedup accounting broken after retries: %+v", st)
	}
}

// testSweepFaultLeavesUsageConsistent checks a failed Sweep is a clean
// no-op: no node half-deleted, unique accounting unchanged, disk usage (if
// the backend reports one) unchanged — and after the fault clears, a real
// sweep still reclaims.
func testSweepFaultLeavesUsageConsistent(t *testing.T, newStore Factory) {
	s := sweepable(t, newStore(t))
	const n = 30
	hs := make([]hash.Hash, n)
	for i := 0; i < n; i++ {
		hs[i] = s.Put(blob(i))
	}
	usage0, hasUsage := store.DiskUsageOf(s)
	fs := faultstore.Wrap(s, faultstore.Config{SweepFailEvery: 1})
	if _, err := store.Sweep(fs, func(hash.Hash) bool { return false }); !errors.Is(err, faultstore.ErrInjected) {
		t.Fatalf("injected Sweep error = %v", err)
	}
	for i, h := range hs {
		if got, ok := s.Get(h); !ok || !bytes.Equal(got, blob(i)) {
			t.Fatalf("node %d disturbed by failed sweep", i)
		}
	}
	if st := s.Stats(); st.UniqueNodes != n {
		t.Fatalf("UniqueNodes = %d after failed sweep, want %d", st.UniqueNodes, n)
	}
	if hasUsage {
		if usage1, _ := store.DiskUsageOf(s); usage1 != usage0 {
			t.Fatalf("disk usage moved across a failed sweep: %d -> %d", usage0, usage1)
		}
	}
	// Fault cleared: the same sweep through the healed injector reclaims.
	fs.Heal()
	live := map[hash.Hash]bool{hs[0]: true}
	st, err := store.Sweep(fs, func(h hash.Hash) bool { return live[h] })
	if err != nil {
		t.Fatalf("Sweep after Heal: %v", err)
	}
	if st.LiveNodes != 1 || st.SweptNodes != n-1 {
		t.Fatalf("sweep after heal = %+v, want 1 live / %d swept", st, n-1)
	}
	if _, ok := s.Get(hs[0]); !ok {
		t.Fatal("live node lost by post-heal sweep")
	}
	if _, ok := s.Get(hs[1]); ok {
		t.Fatal("dead node survived post-heal sweep")
	}
}

// testUsableAfterNoSpaceWindow drives the backend through a persistent
// write-failure window (faultstore's NoSpace mode, the injected full disk)
// and checks the degradation contract every backend owes its callers:
// while degraded, reads of previously written data keep working and the
// write path fails typed-and-retryable (errors.Is(store.ErrNoSpace));
// after the condition clears, writes succeed again and the store's
// accounting shows no ghost of the rejected window.
func testUsableAfterNoSpaceWindow(t *testing.T, newStore Factory) {
	s := newStore(t)
	fs := faultstore.Wrap(s, faultstore.Config{})
	const n = 20
	hs := make([]hash.Hash, n)
	for i := 0; i < n; i++ {
		hs[i] = fs.Put(blob(i))
	}
	if err := store.Flush(fs); err != nil {
		t.Fatal(err)
	}

	fs.SetConfig(faultstore.Config{NoSpace: true})
	// Writes: dropped (Put) or rejected typed (Flush), never torn.
	ghost := fs.Put(blob(n))
	if fs.Has(ghost) {
		t.Fatal("Put during the no-space window reached the store")
	}
	if err := store.Flush(fs); !errors.Is(err, store.ErrNoSpace) {
		t.Fatalf("Flush during no-space = %v, want ErrNoSpace", err)
	}
	// Reads of everything written before the window still work.
	for i, h := range hs {
		if got, ok := fs.Get(h); !ok || !bytes.Equal(got, blob(i)) {
			t.Fatalf("node %d unreadable during the no-space window", i)
		}
	}
	if fs.Counters().NoSpaceHits == 0 {
		t.Fatal("no-space mode injected nothing")
	}

	// Heal: the same writes retry through, and the store carries no ghost
	// records from the rejected window.
	fs.Heal()
	redo := fs.Put(blob(n))
	if got, ok := fs.Get(redo); !ok || !bytes.Equal(got, blob(n)) {
		t.Fatal("write after heal unreadable")
	}
	if err := store.Flush(fs); err != nil {
		t.Fatalf("Flush after heal: %v", err)
	}
	if st := s.Stats(); st.UniqueNodes != n+1 {
		t.Fatalf("UniqueNodes = %d after heal, want %d (ghost or lost records)", st.UniqueNodes, n+1)
	}
}

// blob generates deterministic distinct content of varied length.
func blob(i int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("node-%04d|", i)), i%7+1)
}
