package mbt

import (
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/store"
)

// Tree is one immutable version of a Merkle Bucket Tree. Mutating methods
// return a new Tree sharing unmodified nodes with the receiver.
type Tree struct {
	s     store.Store
	cfg   Config
	sizes []int // node count per level, buckets first
	root  hash.Hash
	// cache holds decoded internal nodes keyed by digest, shared by every
	// version derived from the same New/Load call, so the path walk of a
	// lookup stops re-decoding the hot upper levels; bcache does the same
	// for decoded buckets, so a warm Get performs no decode allocation.
	cache  *core.NodeCache[*internalNode]
	bcache *core.NodeCache[*bucketNode]
}

// Compile-time interface checks.
var (
	_ core.Index       = (*Tree)(nil)
	_ core.NodeWalker  = (*Tree)(nil)
	_ core.CachePurger = (*Tree)(nil)
)

// New builds an empty tree over s with the given parameters. Because
// capacity and fanout are fixed, the complete (empty) node structure is
// materialized immediately; content addressing collapses the identical
// empty buckets and internal nodes to a handful of stored pages.
func New(s store.Store, cfg Config) (*Tree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Tree{s: s, cfg: cfg, sizes: cfg.levelSizes(),
		cache:  core.NewNodeCache[*internalNode](0),
		bcache: core.NewNodeCache[*bucketNode](0)}

	// Build the complete empty tree level by level into a staged writer —
	// one batch flush instead of a Put per distinct node. Nodes with
	// identical child lists are memoized so the build does O(levels)
	// distinct hash computations rather than O(capacity).
	w := core.NewStagedWriter(s)
	emptyBucket := w.Put(encodeBucket(&bucketNode{}))
	level := make([]hash.Hash, cfg.Capacity)
	for i := range level {
		level[i] = emptyBucket
	}
	memo := make(map[string]hash.Hash)
	for l := 1; l < len(t.sizes); l++ {
		next := make([]hash.Hash, t.sizes[l])
		for p := range next {
			a := t.cfg.arity(t.sizes, l, p)
			children := level[p*cfg.Fanout : p*cfg.Fanout+a]
			enc := encodeInternal(&internalNode{children: children})
			key := string(enc)
			h, ok := memo[key]
			if !ok {
				h = w.Put(enc)
				memo[key] = h
			}
			next[p] = h
		}
		level = next
	}
	w.Flush()
	w.Release()
	t.root = level[0]
	return t, nil
}

// Load returns a tree view of an existing root digest in s. The caller must
// supply the same Config the tree was built with.
func Load(s store.Store, cfg Config, root hash.Hash) (*Tree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Tree{s: s, cfg: cfg, sizes: cfg.levelSizes(), root: root,
		cache:  core.NewNodeCache[*internalNode](0),
		bcache: core.NewNodeCache[*bucketNode](0)}, nil
}

// Name implements core.Index.
func (t *Tree) Name() string { return "MBT" }

// Store implements core.Index.
func (t *Tree) Store() store.Store { return t.s }

// RootHash implements core.Index.
func (t *Tree) RootHash() hash.Hash { return t.root }

// Config returns the structural parameters.
func (t *Tree) Config() Config { return t.cfg }

// topLevel returns the root's level index.
func (t *Tree) topLevel() int { return len(t.sizes) - 1 }

// loadRaw fetches a node's encoding.
func (t *Tree) loadRaw(h hash.Hash) ([]byte, error) {
	data, ok := t.s.Get(h)
	if !ok {
		return nil, fmt.Errorf("%w: mbt node %v", core.ErrMissingNode, h)
	}
	return data, nil
}

// loadInternal fetches and decodes the internal node at h, serving repeat
// visits from the shared decoded-node cache. Cached nodes are shared:
// callers copy the child slice before mutating (see updateNode).
func (t *Tree) loadInternal(h hash.Hash) (*internalNode, error) {
	return t.cache.Load(h, func() ([]byte, error) { return t.loadRaw(h) }, decodeInternal)
}

// bucketPath walks from the root to bucket b, returning the node hashes on
// the path (root first, bucket last). This is the paper's reverse simulation
// of the complete multi-way tree search.
func (t *Tree) bucketPath(b int) ([]hash.Hash, error) {
	path := []hash.Hash{t.root}
	h := t.root
	for l := t.topLevel(); l > 0; l-- {
		n, err := t.loadInternal(h)
		if err != nil {
			return nil, err
		}
		childIdx := t.cfg.ancestor(b, l-1)
		slot := childIdx - t.cfg.ancestor(b, l)*t.cfg.Fanout
		if slot < 0 || slot >= len(n.children) {
			return nil, fmt.Errorf("mbt: slot %d out of range at level %d", slot, l)
		}
		h = n.children[slot]
		path = append(path, h)
	}
	return path, nil
}

// bucketHash walks from the root to bucket b and returns just its digest —
// the Get fast path, which unlike bucketPath materializes no path slice.
func (t *Tree) bucketHash(b int) (hash.Hash, error) {
	h := t.root
	for l := t.topLevel(); l > 0; l-- {
		n, err := t.loadInternal(h)
		if err != nil {
			return hash.Null, err
		}
		childIdx := t.cfg.ancestor(b, l-1)
		slot := childIdx - t.cfg.ancestor(b, l)*t.cfg.Fanout
		if slot < 0 || slot >= len(n.children) {
			return hash.Null, fmt.Errorf("mbt: slot %d out of range at level %d", slot, l)
		}
		h = n.children[slot]
	}
	return h, nil
}

// loadBucketNode fetches and decodes the bucket stored under h, serving
// repeat visits from the shared decoded-bucket cache. Cached buckets are
// shared and read-only; the update path builds fresh entry slices
// (applyToBucket copies) instead of mutating a loaded bucket.
func (t *Tree) loadBucketNode(h hash.Hash) (*bucketNode, error) {
	return t.bcache.Load(h, func() ([]byte, error) { return t.loadRaw(h) }, decodeBucket)
}

// loadBucket fetches bucket b.
func (t *Tree) loadBucket(b int) (*bucketNode, error) {
	h, err := t.bucketHash(b)
	if err != nil {
		return nil, err
	}
	return t.loadBucketNode(h)
}

// Get implements core.Index.
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	if len(key) == 0 {
		return nil, false, core.ErrEmptyKey
	}
	bucket, err := t.loadBucket(t.cfg.bucketOf(key))
	if err != nil {
		return nil, false, err
	}
	if i, found := searchBucket(bucket.entries, key); found {
		return bucket.entries[i].Value, true, nil
	}
	return nil, false, nil
}

// Breakdown reports the two phases of an MBT lookup separately for the
// Figure 13 experiment: Load covers tree traversal and node fetching
// (including the raw bucket bytes); Scan covers bucket decoding and the
// binary search. Nodes and Entries count the same two phases
// deterministically: nodes loaded root to bucket, and bucket entries
// decoded.
type Breakdown struct {
	Load    time.Duration
	Scan    time.Duration
	Nodes   int
	Entries int
}

// GetBreakdown is Get with per-phase timing.
func (t *Tree) GetBreakdown(key []byte) ([]byte, bool, Breakdown, error) {
	var bd Breakdown
	if len(key) == 0 {
		return nil, false, bd, core.ErrEmptyKey
	}
	start := time.Now()
	path, err := t.bucketPath(t.cfg.bucketOf(key))
	if err != nil {
		return nil, false, bd, err
	}
	raw, err := t.loadRaw(path[len(path)-1])
	if err != nil {
		return nil, false, bd, err
	}
	bd.Load = time.Since(start)
	bd.Nodes = len(path)

	start = time.Now()
	bucket, err := decodeBucket(raw)
	if err != nil {
		return nil, false, bd, err
	}
	i, found := searchBucket(bucket.entries, key)
	bd.Scan = time.Since(start)
	bd.Entries = len(bucket.entries)
	if !found {
		return nil, false, bd, nil
	}
	return bucket.entries[i].Value, true, bd, nil
}

// Put implements core.Index.
func (t *Tree) Put(key, value []byte) (core.Index, error) {
	if len(key) == 0 {
		return nil, core.ErrEmptyKey
	}
	return t.PutBatch([]core.Entry{{Key: key, Value: value}})
}

// bucketGroup carries the updates destined for one bucket.
type bucketGroup struct {
	idx  int
	puts []core.Entry
	dels [][]byte
}

// PutBatch implements core.Index: updates are grouped per bucket, affected
// buckets are rewritten, and the hashes on their paths are recomputed
// bottom-up (the paper's "hashes of the bucket and the nodes are
// recalculated recursively").
func (t *Tree) PutBatch(entries []core.Entry) (core.Index, error) {
	if err := core.ValidateEntries(entries); err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return t, nil
	}
	groups := t.groupByBucket(core.SortEntries(entries), nil)
	return t.commitGroups(groups)
}

// commitGroups rewrites the affected paths bottom-up through a staged
// writer, so the whole update lands in the store as one batch flush of
// exactly the nodes reachable from the new root. The root's child subtrees
// are disjoint bucket ranges, so they rewrite concurrently across the
// writer's workers.
func (t *Tree) commitGroups(groups []bucketGroup) (core.Index, error) {
	w := core.NewStagedWriter(t.s)
	root, err := t.updateRoot(w, groups)
	if err != nil {
		w.Release()
		return nil, err
	}
	w.Flush()
	w.Release()
	return &Tree{s: t.s, cfg: t.cfg, sizes: t.sizes, root: root, cache: t.cache, bcache: t.bcache}, nil
}

// updateRoot rewrites the root applying the bucket groups, fanning the
// affected child subtrees across the staged writer's workers when it has
// more than one. Each child covers a disjoint bucket range, so the
// goroutines share nothing but the (concurrency-safe) caches and writer;
// the committed root is byte-identical to the serial walk's.
func (t *Tree) updateRoot(w *core.StagedWriter, groups []bucketGroup) (hash.Hash, error) {
	level := t.topLevel()
	if w.Workers() <= 1 || level == 0 || len(groups) < 2 {
		return t.updateNode(w, t.root, level, 0, groups)
	}
	n, err := t.loadInternal(t.root)
	if err != nil {
		return hash.Null, err
	}
	nn := &internalNode{children: append([]hash.Hash{}, n.children...)}
	type slotRun struct {
		slot   int
		groups []bucketGroup
	}
	var runs []slotRun
	i := 0
	for i < len(groups) {
		slot := t.cfg.ancestor(groups[i].idx, level-1)
		j := i
		for j < len(groups) && t.cfg.ancestor(groups[j].idx, level-1) == slot {
			j++
		}
		if slot < 0 || slot >= len(nn.children) {
			return hash.Null, fmt.Errorf("mbt: update slot %d out of range at level %d", slot, level)
		}
		runs = append(runs, slotRun{slot: slot, groups: groups[i:j]})
		i = j
	}
	errs := make([]error, len(runs))
	core.FanOut(w.Workers(), len(runs), func(k int) {
		r := runs[k]
		child, err := t.updateNode(w, nn.children[r.slot], level-1, r.slot, r.groups)
		if err != nil {
			errs[k] = err
			return
		}
		nn.children[r.slot] = child
	})
	for _, err := range errs {
		if err != nil {
			return hash.Null, err
		}
	}
	return w.PutFunc(func(enc *codec.Writer) { encodeInternalTo(enc, nn.children) }), nil
}

// Delete implements core.Index.
func (t *Tree) Delete(key []byte) (core.Index, error) {
	if len(key) == 0 {
		return nil, core.ErrEmptyKey
	}
	if _, ok, err := t.Get(key); err != nil {
		return nil, err
	} else if !ok {
		return t, nil
	}
	groups := t.groupByBucket(nil, [][]byte{key})
	return t.commitGroups(groups)
}

// groupByBucket partitions puts and dels into per-bucket groups sorted by
// bucket index.
func (t *Tree) groupByBucket(puts []core.Entry, dels [][]byte) []bucketGroup {
	byIdx := make(map[int]*bucketGroup)
	for _, e := range puts {
		b := t.cfg.bucketOf(e.Key)
		g := byIdx[b]
		if g == nil {
			g = &bucketGroup{idx: b}
			byIdx[b] = g
		}
		g.puts = append(g.puts, e)
	}
	for _, k := range dels {
		b := t.cfg.bucketOf(k)
		g := byIdx[b]
		if g == nil {
			g = &bucketGroup{idx: b}
			byIdx[b] = g
		}
		g.dels = append(g.dels, k)
	}
	out := make([]bucketGroup, 0, len(byIdx))
	for _, g := range byIdx {
		out = append(out, *g)
	}
	// Sort by bucket index so child partitioning can split ranges.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].idx > out[j].idx; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// updateNode rewrites node (level, pos) applying the given bucket groups,
// returning the new node hash. Only children whose bucket ranges intersect
// the groups are copied; the rest are shared with the previous version.
func (t *Tree) updateNode(w *core.StagedWriter, h hash.Hash, level, pos int, groups []bucketGroup) (hash.Hash, error) {
	if level == 0 {
		bucket, err := t.loadBucketNode(h)
		if err != nil {
			return hash.Null, err
		}
		g := groups[0] // exactly one group reaches a bucket
		entries := applyToBucket(bucket.entries, g.puts, g.dels)
		return w.PutFunc(func(enc *codec.Writer) { encodeBucketTo(enc, entries) }), nil
	}
	n, err := t.loadInternal(h)
	if err != nil {
		return hash.Null, err
	}
	nn := &internalNode{children: append([]hash.Hash{}, n.children...)}
	// Partition groups among child slots: bucket b belongs to the child
	// with index ancestor(b, level-1), i.e. slot ancestor(b,level-1) −
	// pos·fanout.
	i := 0
	for i < len(groups) {
		slot := t.cfg.ancestor(groups[i].idx, level-1) - pos*t.cfg.Fanout
		j := i
		for j < len(groups) && t.cfg.ancestor(groups[j].idx, level-1)-pos*t.cfg.Fanout == slot {
			j++
		}
		if slot < 0 || slot >= len(nn.children) {
			return hash.Null, fmt.Errorf("mbt: update slot %d out of range at level %d", slot, level)
		}
		child, err := t.updateNode(w, nn.children[slot], level-1, pos*t.cfg.Fanout+slot, groups[i:j])
		if err != nil {
			return hash.Null, err
		}
		nn.children[slot] = child
		i = j
	}
	return w.PutFunc(func(enc *codec.Writer) { encodeInternalTo(enc, nn.children) }), nil
}

// Count implements core.Index.
func (t *Tree) Count() (int, error) {
	n := 0
	err := t.Iterate(func(_, _ []byte) bool { n++; return true })
	return n, err
}

// Iterate implements core.Index. Entries are visited bucket by bucket (key
// order within a bucket, hash order across buckets).
func (t *Tree) Iterate(fn func(key, value []byte) bool) error {
	_, err := t.iterNode(t.root, t.topLevel(), fn)
	return err
}

func (t *Tree) iterNode(h hash.Hash, level int, fn func(key, value []byte) bool) (bool, error) {
	if level == 0 {
		bucket, err := t.loadBucketNode(h)
		if err != nil {
			return false, err
		}
		for _, e := range bucket.entries {
			if !fn(e.Key, e.Value) {
				return false, nil
			}
		}
		return true, nil
	}
	// Internal levels come from the shared decoded-node cache, so repeated
	// full or bounded scans stop re-decoding the upper tree.
	n, err := t.loadInternal(h)
	if err != nil {
		return false, err
	}
	for _, c := range n.children {
		ok, err := t.iterNode(c, level-1, fn)
		if err != nil || !ok {
			return ok, err
		}
	}
	return true, nil
}

// PathLength implements core.Index. Every lookup traverses the same number
// of nodes: the internal levels plus the bucket.
func (t *Tree) PathLength(key []byte) (int, error) {
	if len(key) == 0 {
		return 0, core.ErrEmptyKey
	}
	return len(t.sizes), nil
}

// PurgeCache implements core.CachePurger: it evicts decoded internal nodes
// and buckets a GC pass swept from the family-shared caches.
func (t *Tree) PurgeCache(live func(hash.Hash) bool) int {
	dead := func(h hash.Hash) bool { return !live(h) }
	return t.cache.EvictIf(dead) + t.bcache.EvictIf(dead)
}

// Refs implements core.NodeWalker.
func (t *Tree) Refs(data []byte) ([]hash.Hash, error) {
	kind, err := nodeKind(data)
	if err != nil {
		return nil, err
	}
	if kind == tagBucket {
		return nil, nil
	}
	n, err := decodeInternal(data)
	if err != nil {
		return nil, err
	}
	return n.children, nil
}
