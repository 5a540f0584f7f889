// Package bench regenerates every table and figure of the paper's
// evaluation (§5). Each experiment is a function producing text tables with
// the same rows and series the paper plots; cmd/siribench drives them and
// the repository-root benchmarks wrap them in testing.B.
//
// Absolute numbers depend on hardware; the claims these experiments
// reproduce are the shapes: which index wins, by roughly what factor, and
// where the crossovers fall.
package bench

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/mbt"
	"repro/internal/mpt"
	"repro/internal/mvmbt"
	"repro/internal/postree"
	"repro/internal/prolly"
	"repro/internal/store"
	"repro/internal/version"
	"repro/internal/workload"
)

// Scale bounds the experiment sizes. The paper's full scale (2.56M records
// per cell across 9 configurations) is hours of compute; Small keeps every
// experiment in seconds and Medium in minutes while preserving the shapes.
type Scale struct {
	Name string
	// YCSBCounts are the x-axis record counts for Figures 6, 14 and 21.
	YCSBCounts []int
	// Ops is the operation count per throughput/latency measurement.
	Ops int
	// Batch is the write batch size (the paper's default is 4000).
	Batch int
	// LatencyRecords is the dataset size for Figure 10 (paper: 160k).
	LatencyRecords int
	// DiffCounts are the x-axis record counts for Figure 8.
	DiffCounts []int
	// Wiki parameters (Figures 7a, 11, 15).
	WikiPages, WikiVersions, WikiUpdates int
	// Ethereum parameters (Figures 7b, 12, 16).
	EthBlocks, EthTxPerBlock int
	// Collaboration parameters (Figures 17–20, Table 3).
	CollabParties, CollabInit, CollabOps int
	// NodeSize is the tuned index node size (paper: ~1KB).
	NodeSize int
	// MBTBuckets is the bucket count for MBT instances.
	MBTBuckets int
	// Figure 1 parameters: initial records, updates per version, and the
	// version counts at which storage/time are sampled (paper: 100k
	// records, 1k updates, 100–500 versions).
	Fig1Records     int
	Fig1Updates     int
	Fig1Checkpoints []int
	// Retention parameters (the versioning + GC extension): commit
	// RetentionVersions versions of RetentionUpdates updates each, then GC
	// down to the newest RetentionKeep and report reclaimed bytes.
	// cmd/siribench's -retain flag overrides RetentionKeep.
	RetentionVersions int
	RetentionUpdates  int
	RetentionKeep     int

	// Ingest parameters (the WAL-backed write-optimized front-end
	// extension): IngestWrites point writes per path, with the direct
	// baseline committing every IngestCommitEvery writes and the buffered
	// path auto-merging every IngestMergeEvery. cmd/siribench's -ingest
	// flag overrides IngestWrites. IngestMergeEvery must stay large
	// relative to MBTBuckets: an MBT merge rewrites every touched bucket,
	// so a merge much smaller than the bucket count forfeits the
	// amortization the buffer exists to provide.
	IngestWrites      int
	IngestCommitEvery int
	IngestMergeEvery  int

	// Overload parameters (the serving-layer overload-protection
	// extension): each cell drives OverloadBaseConns × load-multiplier
	// closed-loop writers against one servlet for OverloadWindowMS, with
	// load shedding on (MaxInflight = OverloadBaseConns) and off.
	// cmd/siribench's -overloadms flag overrides OverloadWindowMS.
	OverloadWindowMS  int
	OverloadBaseConns int

	// SecondaryRows is the dataset size for the secondary-index experiment
	// (the secondary indexes + planner extension): rows loaded through a
	// table maintaining one derived-attribute secondary, then probed with
	// narrow queries through the index route and the scan route.
	SecondaryRows int

	// Store selects the node-store backend every candidate builds on, so
	// each table/figure can run against the mem/disk × cache-size matrix.
	// The zero value is the historical default: an uncached MemStore.
	// cmd/siribench populates it from -store/-storedir/-cache.
	Store StoreConfig
	// ClientCacheBytes bounds the Forkbase client node cache in the
	// system experiments (Figures 21–22). 0 selects the paper's default
	// (64 MiB); negative disables client caching.
	ClientCacheBytes int64

	// tracker, when set, records every store NewStore opens so the
	// experiment wrapper can release them all when the run ends. See
	// WithStoreTracking.
	tracker *storeTracker
}

// storeTracker collects stores opened during one experiment run.
type storeTracker struct {
	mu     sync.Mutex
	stores []store.Store
}

func (t *storeTracker) add(s store.Store) {
	t.mu.Lock()
	t.stores = append(t.stores, s)
	t.mu.Unlock()
}

// aggregate sums the current accounting of every tracked store. Called
// before releaseAll when a caller wants the run's storage footprint (a
// released DiskStore has deleted its files).
func (t *storeTracker) aggregate() store.Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var agg store.Stats
	for _, s := range t.stores {
		st := s.Stats()
		agg.UniqueNodes += st.UniqueNodes
		agg.UniqueBytes += st.UniqueBytes
		agg.RawNodes += st.RawNodes
		agg.RawBytes += st.RawBytes
		agg.DedupHits += st.DedupHits
		agg.Gets += st.Gets
		agg.Misses += st.Misses
	}
	return agg
}

// releaseAll releases every tracked store. Releasing a store twice is safe
// (DiskStore.Close is idempotent), so experiments that already release
// per-cell for promptness need no special casing.
func (t *storeTracker) releaseAll() {
	t.mu.Lock()
	stores := t.stores
	t.stores = nil
	t.mu.Unlock()
	for _, s := range stores {
		_ = store.Release(s)
	}
}

// WithStoreTracking returns a copy of sc whose NewStore registers every
// store it opens, plus the release function that closes them all. The
// experiment registry wraps every Run with it so no figure can leak disk
// stores, even on error paths.
func (sc Scale) WithStoreTracking() (Scale, func()) {
	t := &storeTracker{}
	sc.tracker = t
	return sc, t.releaseAll
}

// StoreConfig mirrors store.Config for the fields experiments may vary.
type StoreConfig struct {
	Backend    string // "mem" (default) or "disk"
	Dir        string // disk backend base dir; "" = OS temp dir
	CacheBytes int64  // >0 layers an LRU cache over the backend
}

// NewStore opens one store per the scale's backend selection. Disk-backed
// stores land in a fresh subdirectory each call and remove it on Release,
// so candidates never share or leak segment files.
func (sc Scale) NewStore() (store.Store, error) {
	s, err := store.Open(store.Config{
		Backend:    sc.Store.Backend,
		Dir:        sc.Store.Dir,
		CacheBytes: sc.Store.CacheBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	if sc.tracker != nil {
		sc.tracker.add(s)
	}
	return s, nil
}

// ReleaseIndex releases the store backing idx once an experiment cell is
// done with every version built over it. In-memory backends make this a
// no-op; disk backends close and remove their segment files.
func ReleaseIndex(idx core.Index) {
	if idx != nil {
		_ = store.Release(idx.Store())
	}
}

// ReleaseVersions releases every distinct store behind a version set (the
// collaboration experiments build one store per party).
func ReleaseVersions(versions []core.Index) {
	seen := make(map[store.Store]bool)
	for _, v := range versions {
		if v == nil || seen[v.Store()] {
			continue
		}
		seen[v.Store()] = true
		_ = store.Release(v.Store())
	}
}

// TinyScale keeps the full experiment suite runnable in a few seconds
// total; it exercises every code path and is what the repository-root
// testing.B benchmarks use.
func TinyScale() Scale {
	return Scale{
		Name:           "tiny",
		YCSBCounts:     []int{200, 400},
		Ops:            300,
		Batch:          100,
		LatencyRecords: 500,
		DiffCounts:     []int{300, 600},
		WikiPages:      300, WikiVersions: 6, WikiUpdates: 30,
		EthBlocks: 5, EthTxPerBlock: 30,
		CollabParties: 2, CollabInit: 300, CollabOps: 600,
		NodeSize:    512,
		MBTBuckets:  64,
		Fig1Records: 500, Fig1Updates: 50, Fig1Checkpoints: []int{2, 4},
		RetentionVersions: 8, RetentionUpdates: 40, RetentionKeep: 3,
		IngestWrites: 2000, IngestCommitEvery: 100, IngestMergeEvery: 1000,
		SecondaryRows:    1200,
		OverloadWindowMS: 250, OverloadBaseConns: 4,
	}
}

// SmallScale keeps everything under a few seconds per experiment — used by
// the go test benchmarks.
func SmallScale() Scale {
	return Scale{
		Name:           "small",
		YCSBCounts:     []int{1000, 2000, 4000, 8000},
		Ops:            2000,
		Batch:          500,
		LatencyRecords: 8000,
		DiffCounts:     []int{2000, 4000, 8000},
		WikiPages:      2000, WikiVersions: 20, WikiUpdates: 100,
		EthBlocks: 20, EthTxPerBlock: 100,
		CollabParties: 4, CollabInit: 5000, CollabOps: 20000,
		NodeSize:    1024,
		MBTBuckets:  512,
		Fig1Records: 5000, Fig1Updates: 100, Fig1Checkpoints: []int{10, 20, 30, 40, 50},
		RetentionVersions: 20, RetentionUpdates: 200, RetentionKeep: 5,
		IngestWrites: 8000, IngestCommitEvery: 200, IngestMergeEvery: 2000,
		SecondaryRows:    4000,
		OverloadWindowMS: 400, OverloadBaseConns: 4,
	}
}

// MediumScale is the default for cmd/siribench: minutes per experiment,
// with enough range for the crossovers to show.
func MediumScale() Scale {
	return Scale{
		Name:           "medium",
		YCSBCounts:     []int{10000, 20000, 40000, 80000, 160000},
		Ops:            10000,
		Batch:          4000,
		LatencyRecords: 160000,
		DiffCounts:     []int{50000, 100000, 150000, 200000, 250000},
		WikiPages:      20000, WikiVersions: 50, WikiUpdates: 200,
		EthBlocks: 50, EthTxPerBlock: 150,
		CollabParties: 10, CollabInit: 40000, CollabOps: 160000,
		NodeSize:    1024,
		MBTBuckets:  4096,
		Fig1Records: 100000, Fig1Updates: 1000, Fig1Checkpoints: []int{100, 200, 300, 400, 500},
		RetentionVersions: 50, RetentionUpdates: 1000, RetentionKeep: 5,
		IngestWrites: 40000, IngestCommitEvery: 500, IngestMergeEvery: 20000,
		SecondaryRows:    20000,
		OverloadWindowMS: 1000, OverloadBaseConns: 8,
	}
}

// FullScale approaches the paper's settings; expect long runtimes.
func FullScale() Scale {
	return Scale{
		Name:           "full",
		YCSBCounts:     []int{10000, 20000, 40000, 80000, 160000, 320000, 640000, 1280000, 2560000},
		Ops:            10000,
		Batch:          4000,
		LatencyRecords: 160000,
		DiffCounts:     []int{500000, 1000000, 1500000, 2000000, 2500000},
		WikiPages:      100000, WikiVersions: 300, WikiUpdates: 500,
		EthBlocks: 300, EthTxPerBlock: 150,
		CollabParties: 10, CollabInit: 40000, CollabOps: 160000,
		NodeSize:    1024,
		MBTBuckets:  4096,
		Fig1Records: 100000, Fig1Updates: 1000, Fig1Checkpoints: []int{100, 200, 300, 400, 500},
		RetentionVersions: 50, RetentionUpdates: 1000, RetentionKeep: 5,
		IngestWrites: 200000, IngestCommitEvery: 1000, IngestMergeEvery: 20000,
		SecondaryRows:    100000,
		OverloadWindowMS: 2000, OverloadBaseConns: 8,
	}
}

// ScaleByName resolves tiny/small/medium/full. Tiny is the CI smoke scale:
// the whole suite in seconds, every code path exercised.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "tiny":
		return TinyScale(), nil
	case "small":
		return SmallScale(), nil
	case "medium", "":
		return MediumScale(), nil
	case "full":
		return FullScale(), nil
	}
	return Scale{}, fmt.Errorf("bench: unknown scale %q (want tiny, small, medium or full)", name)
}

// Class is one index class under test, configured for one scale.
type Class struct {
	// Name labels the class in tables. For the entries of Classes it is
	// also the index's core.Index.Name, under which RegisterLoaders
	// registers Load.
	Name string
	// New returns an empty index over s.
	New func(s store.Store) (core.Index, error)
	// Load reopens a committed version of the class: the checkout loader a
	// version.Repo needs, and (through servedLoader) a forkbase client's.
	Load version.Loader
	// PerOpWrites applies write workloads one operation at a time, the
	// way the paper's implementations of MPT, MBT and the baseline work;
	// §5.2 applies batching — "taking advantage of the bottom-up build
	// order" — to POS-Tree only.
	PerOpWrites bool
}

// Classes is the one place the harness configures an index class: the
// paper's four candidates — POS-Tree, MBT, MPT and the MVMB+-Tree baseline —
// tuned to the scale's node size, then Noms' Prolly Tree. Every experiment,
// loader registration and CLI verb builds its classes from this table.
func Classes(sc Scale) []Class {
	posCfg := postree.ConfigForNodeSize(sc.NodeSize)
	mbtCfg := mbt.Config{Capacity: sc.MBTBuckets, Fanout: 32}
	mvCfg := mvmbt.ConfigForNodeSize(sc.NodeSize)
	proCfg := prolly.ConfigForNodeSize(sc.NodeSize)
	return []Class{
		posTreeClass("POS-Tree", posCfg),
		{
			Name: "MBT",
			New:  func(s store.Store) (core.Index, error) { return mbt.New(s, mbtCfg) },
			Load: func(s store.Store, root hash.Hash, _ int) (core.Index, error) {
				return mbt.Load(s, mbtCfg, root)
			},
			PerOpWrites: true,
		},
		{
			Name: "MPT",
			New:  func(s store.Store) (core.Index, error) { return mpt.New(s), nil },
			Load: func(s store.Store, root hash.Hash, _ int) (core.Index, error) {
				return mpt.Load(s, root), nil
			},
			PerOpWrites: true,
		},
		{
			Name: "MVMB+-Tree",
			New:  func(s store.Store) (core.Index, error) { return mvmbt.New(s, mvCfg), nil },
			Load: func(s store.Store, root hash.Hash, height int) (core.Index, error) {
				return mvmbt.Load(s, mvCfg, root, height), nil
			},
			PerOpWrites: true,
		},
		prollyClass("Prolly-Tree", proCfg),
	}
}

// posTreeClass and prollyClass build the two content-defined-chunking
// classes under a display name, for experiments that vary their config.
func posTreeClass(name string, cfg postree.Config) Class {
	return Class{
		Name: name,
		New:  func(s store.Store) (core.Index, error) { return postree.New(s, cfg), nil },
		Load: func(s store.Store, root hash.Hash, height int) (core.Index, error) {
			return postree.Load(s, cfg, root, height), nil
		},
	}
}

func prollyClass(name string, cfg postree.Config) Class {
	return Class{
		Name: name,
		New:  func(s store.Store) (core.Index, error) { return prolly.New(s, cfg), nil },
		Load: func(s store.Store, root hash.Hash, height int) (core.Index, error) {
			return prolly.Load(s, cfg, root, height), nil
		},
	}
}

// CandidateSet returns the paper's four candidates: the first four Classes.
func CandidateSet(sc Scale) []Class {
	return Classes(sc)[:4]
}

// classNames returns the table column headers for classes.
func classNames(classes []Class) []string {
	out := make([]string, len(classes))
	for i, c := range classes {
		out[i] = c.Name
	}
	return out
}

// newIndex builds an empty index of class c over a fresh store from the
// scale's backend selection.
func newIndex(sc Scale, c Class) (core.Index, error) {
	s, err := sc.NewStore()
	if err != nil {
		return nil, err
	}
	return c.New(s)
}

// LoadBatched applies entries to idx in batches, returning the final
// version. This is how every experiment loads datasets (the paper batches
// all loads; §5.4.2 uses 4000 as the default batch size).
func LoadBatched(idx core.Index, entries []core.Entry, batch int) (core.Index, error) {
	if batch <= 0 {
		batch = 4000
	}
	for start := 0; start < len(entries); start += batch {
		end := start + batch
		if end > len(entries) {
			end = len(entries)
		}
		next, err := idx.PutBatch(entries[start:end])
		if err != nil {
			return nil, err
		}
		idx = next
	}
	return idx, nil
}

// Throughput runs ops against idx — reads individually, writes batched —
// and returns operations per second plus the final version. A batch of 1
// (or less) applies writes per operation, the paper's mode for the
// non-batching candidates.
func Throughput(idx core.Index, ops []workloadOp, batch int) (float64, core.Index, error) {
	start := time.Now()
	var writeBuf []core.Entry
	flush := func() error {
		if len(writeBuf) == 0 {
			return nil
		}
		next, err := idx.PutBatch(writeBuf)
		if err != nil {
			return err
		}
		idx = next
		writeBuf = writeBuf[:0]
		return nil
	}
	for _, op := range ops {
		if op.Write && batch > 1 {
			writeBuf = append(writeBuf, op.Entry)
			if len(writeBuf) >= batch {
				if err := flush(); err != nil {
					return 0, nil, err
				}
			}
			continue
		}
		// Like point Gets in this batched mode, scans read the current
		// committed version; buffered writes stay buffered so batching
		// candidates keep their batch advantage under scan-heavy mixes.
		var err error
		if idx, err = applyOp(idx, op); err != nil {
			return 0, nil, err
		}
	}
	if err := flush(); err != nil {
		return 0, nil, err
	}
	return float64(len(ops)) / time.Since(start).Seconds(), idx, nil
}

// applyOp applies one workload op — a Put, a scan or a Get — and returns
// the version after it.
func applyOp(idx core.Index, op workloadOp) (core.Index, error) {
	switch {
	case op.Write:
		return idx.Put(op.Entry.Key, op.Entry.Value)
	case op.Scan:
		return idx, RunScan(idx, op)
	default:
		_, _, err := idx.Get(op.Entry.Key)
		return idx, err
	}
}

// RunScan executes one workload scan op: an ordered walk from the op's
// start key visiting at most ScanLen entries, through the index's native
// Range when it has one (all five candidates do) and the Iterate fallback
// otherwise.
func RunScan(idx core.Index, op workloadOp) error {
	remaining := op.ScanLen
	if remaining <= 0 {
		remaining = 1
	}
	return core.RangeOf(idx, op.Entry.Key, nil, func(_, _ []byte) bool {
		remaining--
		return remaining > 0
	})
}

// WriteBatchFor returns the batch size a candidate uses for write
// workloads: the configured batch for batching candidates, 1 for per-op
// candidates.
func WriteBatchFor(c Class, batch int) int {
	if c.PerOpWrites {
		return 1
	}
	return batch
}

// workloadOp aliases workload.Op so experiment code can hand the generated
// streams straight to the measurement helpers.
type workloadOp = workload.Op

// Latencies measures per-operation latency for ops, returning the samples.
func Latencies(idx core.Index, ops []workloadOp) ([]time.Duration, core.Index, error) {
	out := make([]time.Duration, 0, len(ops))
	for _, op := range ops {
		start := time.Now()
		var err error
		if idx, err = applyOp(idx, op); err != nil {
			return nil, nil, err
		}
		out = append(out, time.Since(start))
	}
	return out, idx, nil
}

// Percentile returns the p-quantile (0..1) of samples.
func Percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration{}, samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// Mean returns the average of samples.
func Mean(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range samples {
		sum += s
	}
	return sum / time.Duration(len(samples))
}

// MB renders bytes as megabytes.
func MB(b int64) float64 { return float64(b) / (1 << 20) }

// reachOf wraps core.ReachStats with a uniform error prefix.
func reachOf(idx core.Index) (core.Reach, error) {
	r, err := core.ReachStats(idx)
	if err != nil {
		return core.Reach{}, fmt.Errorf("bench: reach stats for %s: %w", idx.Name(), err)
	}
	return r, nil
}
