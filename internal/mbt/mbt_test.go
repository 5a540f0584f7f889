package mbt

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/store"
)

func smallCfg() Config { return Config{Capacity: 16, Fanout: 4} }

func newTree(t *testing.T, cfg Config) *Tree {
	t.Helper()
	tr, err := New(store.NewMemStore(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func put(t *testing.T, idx core.Index, k, v string) core.Index {
	t.Helper()
	out, err := idx.Put([]byte(k), []byte(v))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func get(t *testing.T, idx core.Index, k string) (string, bool) {
	t.Helper()
	v, ok, err := idx.Get([]byte(k))
	if err != nil {
		t.Fatal(err)
	}
	return string(v), ok
}

// --- config ---

func TestConfigValidate(t *testing.T) {
	if err := (Config{Capacity: 0, Fanout: 2}).Validate(); err == nil {
		t.Fatal("capacity 0 accepted")
	}
	if err := (Config{Capacity: 4, Fanout: 1}).Validate(); err == nil {
		t.Fatal("fanout 1 accepted")
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLevelSizes(t *testing.T) {
	cases := []struct {
		cfg  Config
		want []int
	}{
		{Config{Capacity: 8, Fanout: 2}, []int{8, 4, 2, 1}},
		{Config{Capacity: 10, Fanout: 4}, []int{10, 3, 1}},
		{Config{Capacity: 1, Fanout: 2}, []int{1, 1}},
		{Config{Capacity: 4096, Fanout: 32}, []int{4096, 128, 4, 1}},
	}
	for _, tc := range cases {
		got := tc.cfg.levelSizes()
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("levelSizes(%+v) = %v, want %v", tc.cfg, got, tc.want)
		}
	}
}

func TestAncestor(t *testing.T) {
	cfg := Config{Capacity: 100, Fanout: 4}
	if cfg.ancestor(37, 0) != 37 {
		t.Fatal("level-0 ancestor is the bucket itself")
	}
	if cfg.ancestor(37, 1) != 9 {
		t.Fatalf("ancestor(37,1) = %d", cfg.ancestor(37, 1))
	}
	if cfg.ancestor(37, 2) != 2 {
		t.Fatalf("ancestor(37,2) = %d", cfg.ancestor(37, 2))
	}
}

func TestBucketOfDeterministicAndBounded(t *testing.T) {
	cfg := smallCfg()
	f := func(key []byte) bool {
		if len(key) == 0 {
			return true
		}
		b := cfg.bucketOf(key)
		return b >= 0 && b < cfg.Capacity && b == cfg.bucketOf(key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// --- encoding ---

func TestBucketEncodingRoundTrip(t *testing.T) {
	b := &bucketNode{entries: []core.Entry{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("b"), Value: []byte{}},
	}}
	enc := encodeBucket(b)
	back, err := decodeBucket(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBucket(back), enc) {
		t.Fatal("bucket re-encoding differs")
	}
	if _, err := decodeBucket(enc[:len(enc)-1]); err == nil {
		t.Fatal("decoded truncated bucket")
	}
	if _, err := decodeInternal(enc); err == nil {
		t.Fatal("decoded bucket as internal node")
	}
}

func TestInternalEncodingRoundTrip(t *testing.T) {
	n := &internalNode{children: []hash.Hash{
		hash.Of([]byte("c1")), hash.Of([]byte("c2")),
	}}
	enc := encodeInternal(n)
	back, err := decodeInternal(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeInternal(back), enc) {
		t.Fatal("internal re-encoding differs")
	}
	if _, err := decodeBucket(enc); err == nil {
		t.Fatal("decoded internal node as bucket")
	}
}

// --- construction ---

func TestEmptyTreeDeterministic(t *testing.T) {
	a := newTree(t, smallCfg())
	b := newTree(t, smallCfg())
	if a.RootHash() != b.RootHash() {
		t.Fatal("empty trees differ")
	}
	if a.RootHash().IsNull() {
		t.Fatal("empty MBT root must be a real digest (fixed structure)")
	}
}

func TestEmptyTreeIsCheapToStore(t *testing.T) {
	s := store.NewMemStore()
	if _, err := New(s, Config{Capacity: 10000, Fanout: 32}); err != nil {
		t.Fatal(err)
	}
	// All empty buckets and uniform internal nodes deduplicate.
	if n := s.Stats().UniqueNodes; n > 16 {
		t.Fatalf("empty tree stored %d distinct nodes", n)
	}
}

func TestNonUniformLastLevelNodes(t *testing.T) {
	// Capacity 10, fanout 4 → level sizes [10 3 1]; the trailing level-1
	// node has arity 2 and the root must reference it, not the full one.
	cfg := Config{Capacity: 10, Fanout: 4}
	tr := newTree(t, cfg)
	// Walk to every bucket — a wrong root shape would break path walking.
	for b := 0; b < cfg.Capacity; b++ {
		if _, err := tr.bucketPath(b); err != nil {
			t.Fatalf("bucketPath(%d): %v", b, err)
		}
	}
}

func TestLoadRoundTrip(t *testing.T) {
	s := store.NewMemStore()
	tr, err := New(s, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	idx := put(t, core.Index(tr), "k", "v")
	re, err := Load(s, smallCfg(), idx.RootHash())
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := get(t, re, "k"); !ok || got != "v" {
		t.Fatalf("reloaded tree Get = %q, %v", got, ok)
	}
}

// --- operations ---

func TestPutGet(t *testing.T) {
	var idx core.Index = newTree(t, smallCfg())
	kv := map[string]string{}
	for i := 0; i < 100; i++ {
		k, v := fmt.Sprintf("key-%03d", i), fmt.Sprintf("val-%03d", i)
		idx = put(t, idx, k, v)
		kv[k] = v
	}
	for k, v := range kv {
		if got, ok := get(t, idx, k); !ok || got != v {
			t.Fatalf("Get(%q) = %q, %v", k, got, ok)
		}
	}
	if _, ok := get(t, idx, "absent"); ok {
		t.Fatal("found absent key")
	}
}

func TestOverwriteAndCount(t *testing.T) {
	var idx core.Index = newTree(t, smallCfg())
	idx = put(t, idx, "k", "v1")
	idx = put(t, idx, "k", "v2")
	if got, _ := get(t, idx, "k"); got != "v2" {
		t.Fatalf("Get = %q", got)
	}
	if n, _ := idx.Count(); n != 1 {
		t.Fatalf("Count = %d", n)
	}
}

func TestCopyOnWriteVersions(t *testing.T) {
	v1 := put(t, core.Index(newTree(t, smallCfg())), "a", "1")
	v2 := put(t, v1, "a", "2")
	if got, _ := get(t, v1, "a"); got != "1" {
		t.Fatalf("v1[a] = %q", got)
	}
	if got, _ := get(t, v2, "a"); got != "2" {
		t.Fatalf("v2[a] = %q", got)
	}
}

func TestStructuralInvariance(t *testing.T) {
	// MBT node positions depend only on key hashes, so any insertion
	// order yields the same root.
	keys := make([]string, 30)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
	}
	s := store.NewMemStore()
	build := func(order []int) hash.Hash {
		tr, err := New(s, smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		var idx core.Index = tr
		for _, i := range order {
			idx = put(t, idx, keys[i], "v-"+keys[i])
		}
		return idx.RootHash()
	}
	base := build(rand.New(rand.NewSource(1)).Perm(len(keys)))
	for trial := 0; trial < 5; trial++ {
		order := rand.New(rand.NewSource(int64(trial + 2))).Perm(len(keys))
		if build(order) != base {
			t.Fatalf("order %v changed root", order)
		}
	}
}

func TestBatchMatchesSequential(t *testing.T) {
	s := store.NewMemStore()
	tr, err := New(s, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	var entries []core.Entry
	for i := 0; i < 50; i++ {
		entries = append(entries, core.Entry{
			Key:   []byte(fmt.Sprintf("key-%02d", i)),
			Value: []byte(fmt.Sprintf("val-%02d", i)),
		})
	}
	batch, err := tr.PutBatch(entries)
	if err != nil {
		t.Fatal(err)
	}
	var seq core.Index = tr
	for _, e := range entries {
		seq = put(t, seq, string(e.Key), string(e.Value))
	}
	if batch.RootHash() != seq.RootHash() {
		t.Fatal("batch and sequential roots differ")
	}
}

func TestDeleteRestoresPriorRoot(t *testing.T) {
	var idx core.Index = newTree(t, smallCfg())
	for i := 0; i < 20; i++ {
		idx = put(t, idx, fmt.Sprintf("key-%02d", i), "v")
	}
	before := idx.RootHash()
	bigger := put(t, idx, "extra", "e")
	after, err := bigger.Delete([]byte("extra"))
	if err != nil {
		t.Fatal(err)
	}
	if after.RootHash() != before {
		t.Fatal("delete did not restore prior root")
	}
}

func TestDeleteAbsentIsNoop(t *testing.T) {
	idx := put(t, core.Index(newTree(t, smallCfg())), "k", "v")
	out, err := idx.Delete([]byte("missing"))
	if err != nil {
		t.Fatal(err)
	}
	if out.RootHash() != idx.RootHash() {
		t.Fatal("no-op delete changed root")
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	tr := newTree(t, smallCfg())
	if _, err := tr.Put(nil, []byte("v")); !errors.Is(err, core.ErrEmptyKey) {
		t.Fatalf("Put err = %v", err)
	}
	if _, _, err := tr.Get(nil); !errors.Is(err, core.ErrEmptyKey) {
		t.Fatalf("Get err = %v", err)
	}
}

func TestModelConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var idx core.Index = newTree(t, smallCfg())
	model := map[string]string{}
	pool := make([]string, 40)
	for i := range pool {
		pool[i] = fmt.Sprintf("key-%x", rng.Intn(1<<10))
	}
	for step := 0; step < 1000; step++ {
		k := pool[rng.Intn(len(pool))]
		if rng.Intn(3) < 2 {
			v := fmt.Sprintf("v%d", step)
			idx = put(t, idx, k, v)
			model[k] = v
		} else {
			var err error
			idx, err = idx.Delete([]byte(k))
			if err != nil {
				t.Fatal(err)
			}
			delete(model, k)
		}
		probe := pool[rng.Intn(len(pool))]
		got, ok := get(t, idx, probe)
		want, wantOK := model[probe]
		if ok != wantOK || (ok && got != want) {
			t.Fatalf("step %d: Get(%q) = %q,%v; want %q,%v", step, probe, got, ok, want, wantOK)
		}
	}
	if n, _ := idx.Count(); n != len(model) {
		t.Fatalf("Count = %d, model %d", n, len(model))
	}
}

func TestIterateVisitsAll(t *testing.T) {
	var idx core.Index = newTree(t, smallCfg())
	want := map[string]bool{}
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("key-%02d", i)
		idx = put(t, idx, k, "v")
		want[k] = true
	}
	got := map[string]bool{}
	if err := idx.Iterate(func(k, _ []byte) bool { got[string(k)] = true; return true }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("visited %d keys, want %d", len(got), len(want))
	}
}

func TestPathLengthConstant(t *testing.T) {
	idx := newTree(t, Config{Capacity: 4096, Fanout: 32})
	pl, err := idx.PathLength([]byte("any"))
	if err != nil {
		t.Fatal(err)
	}
	if pl != 4 { // levels: 4096, 128, 4, 1
		t.Fatalf("PathLength = %d, want 4", pl)
	}
}

func TestGetBreakdown(t *testing.T) {
	var idx core.Index = newTree(t, smallCfg())
	for i := 0; i < 200; i++ {
		idx = put(t, idx, fmt.Sprintf("key-%03d", i), "some value")
	}
	v, ok, bd, err := idx.(*Tree).GetBreakdown([]byte("key-100"))
	if err != nil || !ok || string(v) != "some value" {
		t.Fatalf("GetBreakdown = %q, %v, %v", v, ok, err)
	}
	if bd.Load <= 0 || bd.Scan <= 0 {
		t.Fatalf("breakdown not measured: %+v", bd)
	}
	pl, err := idx.(*Tree).PathLength([]byte("key-100"))
	if err != nil {
		t.Fatal(err)
	}
	if bd.Nodes != pl || bd.Entries < 1 {
		t.Fatalf("breakdown counts = %d nodes, %d entries; want %d nodes, >= 1 entry", bd.Nodes, bd.Entries, pl)
	}
}

// --- diff & merge ---

func TestDiffIdentical(t *testing.T) {
	s := store.NewMemStore()
	tr, _ := New(s, smallCfg())
	a := put(t, core.Index(tr), "x", "1")
	diffs, err := a.Diff(a)
	if err != nil || len(diffs) != 0 {
		t.Fatalf("diff of identical = %v, %v", diffs, err)
	}
}

func TestDiffMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := store.NewMemStore()
	tr, _ := New(s, smallCfg())
	var a, b core.Index = tr, tr
	ma, mb := map[string]string{}, map[string]string{}
	for i := 0; i < 200; i++ {
		k, v := fmt.Sprintf("key-%03d", rng.Intn(100)), fmt.Sprintf("v%d", i)
		if rng.Intn(2) == 0 {
			a, ma[k] = put(t, a, k, v), v
		} else {
			b, mb[k] = put(t, b, k, v), v
		}
	}
	diffs, err := a.Diff(b)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for k, v := range ma {
		if mb[k] != v {
			want[k] = true
		}
	}
	for k, v := range mb {
		if ma[k] != v {
			want[k] = true
		}
	}
	if len(diffs) != len(want) {
		t.Fatalf("got %d diffs, want %d", len(diffs), len(want))
	}
	for _, d := range diffs {
		if !want[string(d.Key)] {
			t.Fatalf("unexpected diff key %q", d.Key)
		}
		if string(d.Left) != ma[string(d.Key)] || string(d.Right) != mb[string(d.Key)] {
			t.Fatalf("diff values wrong for %q", d.Key)
		}
	}
}

func TestDiffRejectsMismatchedConfig(t *testing.T) {
	a := newTree(t, smallCfg())
	b := newTree(t, Config{Capacity: 8, Fanout: 2})
	if _, err := a.Diff(b); !errors.Is(err, core.ErrTypeMismatch) {
		t.Fatalf("err = %v", err)
	}
}

func TestMergeThroughCore(t *testing.T) {
	s := store.NewMemStore()
	tr, _ := New(s, smallCfg())
	base := put(t, core.Index(tr), "shared", "v")
	left := put(t, base, "l", "1")
	right := put(t, base, "r", "2")
	merged, err := core.Merge(left, right, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range map[string]string{"shared": "v", "l": "1", "r": "2"} {
		if got, ok := get(t, merged, k); !ok || got != v {
			t.Fatalf("merged[%q] = %q, %v", k, got, ok)
		}
	}
}

// --- proofs ---

func TestProveAndVerify(t *testing.T) {
	var idx core.Index = newTree(t, smallCfg())
	for i := 0; i < 64; i++ {
		idx = put(t, idx, fmt.Sprintf("key-%02d", i), fmt.Sprintf("val-%02d", i))
	}
	proof, err := idx.Prove([]byte("key-33"))
	if err != nil {
		t.Fatal(err)
	}
	if string(proof.Value) != "val-33" {
		t.Fatalf("proof value = %q", proof.Value)
	}
	if err := idx.VerifyProof(idx.RootHash(), proof); err != nil {
		t.Fatalf("valid proof rejected: %v", err)
	}
	proof.Value = []byte("forged")
	if err := idx.VerifyProof(idx.RootHash(), proof); !errors.Is(err, core.ErrInvalidProof) {
		t.Fatalf("forged proof accepted: %v", err)
	}
	if _, err := idx.Prove([]byte("missing")); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("Prove(missing) = %v", err)
	}
	if err := idx.VerifyProof(idx.RootHash(), &core.Proof{}); !errors.Is(err, core.ErrInvalidProof) {
		t.Fatalf("empty proof accepted: %v", err)
	}
}

// --- metrics ---

func TestFixedNodeCountAcrossGrowth(t *testing.T) {
	// The paper: "the number of nodes created keeps constant when updating
	// or inserting, no matter how large the total number of records is."
	var idx core.Index = newTree(t, smallCfg())
	var counts []int
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			idx = put(t, idx, fmt.Sprintf("r%d-key-%03d", round, i), "value")
		}
		r, err := core.ReachStats(idx)
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, r.Nodes)
	}
	// Total reachable node count is bounded by the fixed structure size.
	max := 16 + 4 + 1
	for _, c := range counts {
		if c > max {
			t.Fatalf("reachable nodes %d exceeds structural total %d", c, max)
		}
	}
}

func TestApplyToBucketProperty(t *testing.T) {
	f := func(baseKeys, putKeys []uint8) bool {
		var base []core.Entry
		seen := map[uint8]bool{}
		for _, k := range baseKeys {
			if seen[k] {
				continue
			}
			seen[k] = true
			base = append(base, core.Entry{Key: []byte{k}, Value: []byte("old")})
		}
		base = core.SortEntries(base)
		var puts []core.Entry
		for _, k := range putKeys {
			puts = append(puts, core.Entry{Key: []byte{k}, Value: []byte("new")})
		}
		out := applyToBucket(base, core.SortEntries(puts), nil)
		// Result must be sorted and contain every put key with the new value.
		for i := 1; i < len(out); i++ {
			if bytes.Compare(out[i-1].Key, out[i].Key) >= 0 {
				return false
			}
		}
		for _, p := range puts {
			i, found := searchBucket(out, p.Key)
			if !found || string(out[i].Value) != "new" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
