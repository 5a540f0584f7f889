package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/ingest"
	"repro/internal/mbt"
	"repro/internal/store"
	"repro/internal/version"
	"repro/internal/workload"
)

// ingest-mbt: high-rate ledger writes through the WAL front-end. One lane
// issues a YCSB zipfian stream over ingest.Open with AutoMerge and an MBT
// behind it: groups of ingestGroup Puts each acknowledged by a Flush
// (flushed to the OS), runs of ingestGetBatch point Gets, and short Ranges
// through the overlay. Point requests are about 95% Puts and 5% Gets.
// Ranges are rare because an MBT range visits every bucket: at
// the 5% the YCSB-E style mix would suggest, they take most of the loop.
// Every ingestProveEvery-th Get also proves the key at the merged head, and
// every merge is diffed against the head before it.
const (
	ingestRecords    = 20000
	ingestTheta      = 0.99
	ingestGroup      = 16 // Puts per Flush
	ingestGetBatch   = 8  // Gets per read operation
	ingestPutFrac    = 0.90
	ingestGetFrac    = 0.095 // the rest are Ranges
	ingestRangeRows  = 16
	ingestProveEvery = 8
	ingestDedupWin   = 8
	ingestBranch     = "ingest"
	ingestGetTail    = 99 // percentiles of the tail metrics
	ingestCommitTail = 99.95
)

// ingestTraceOps: operations (a Put group counts once) in one traced pass.
func ingestTraceOps(seconds int) []int { return []int{1500 * seconds} }

// tracedMBT is the MBT the repo and the buffer see: every PutBatch — the
// index share of a merge — runs inside an "mbt.PutBatch" span.
type tracedMBT struct {
	*mbt.Tree
	tr *tracer
}

func (t tracedMBT) PutBatch(entries []core.Entry) (core.Index, error) {
	sp := t.tr.begin("mbt.PutBatch")
	n, err := t.Tree.PutBatch(entries)
	t.tr.end(sp)
	if err != nil {
		return nil, err
	}
	return tracedMBT{n.(*mbt.Tree), t.tr}, nil
}

type ingestBench struct {
	seed   int64
	y      *workload.YCSB
	sorted [][]byte // every key in order, for the range oracle

	tr     *tracer
	ts     *tstore
	repo   *version.Repo
	buf    *ingest.Buffer
	walDir string

	shadow  map[string][]byte // latest acknowledged value per key
	merged  map[string][]byte // value per key at the branch head
	pending map[string]bool   // keys written since the last merge
	headID  hash.Hash
	head    *mbt.Tree
	version int

	tally

	userBytes, measUser, acked int64
	cnt0                       storeCounts

	getUs, commitMs, scanUs, proofUs, diffMs []float64
	putUs                                    []float64 // Puts that did not merge, traced pass only
	mergeMs, mergeEntries                    []float64
	walGrowth, walPuts, scanRows             int64
	merges                                   int
}

func newIngest(seed int64) bench {
	b := &ingestBench{
		seed:    seed,
		y:       workload.NewYCSB(workload.YCSBConfig{Records: ingestRecords, Theta: ingestTheta, Seed: seed}),
		shadow:  make(map[string][]byte, ingestRecords),
		merged:  make(map[string][]byte, ingestRecords),
		pending: make(map[string]bool),
	}
	for i := 0; i < ingestRecords; i++ {
		b.sorted = append(b.sorted, b.y.Key(i))
	}
	sort.Slice(b.sorted, func(i, j int) bool { return bytes.Compare(b.sorted[i], b.sorted[j]) < 0 })
	return b
}

func (b *ingestBench) counts() storeCounts { return b.ts.counts() }

func (b *ingestBench) sizes() string {
	return fmt.Sprintf("%d records, %d user bytes, %d store nodes; memtable merges at 4096 keys, MBT %d buckets, decoded-node caches %d entries",
		ingestRecords, b.userBytes, b.ts.Stats().UniqueNodes, mbt.DefaultConfig().Capacity, core.DefaultNodeCacheEntries)
}

func (b *ingestBench) newMBT(s store.Store) (core.Index, error) {
	t, err := mbt.New(s, mbt.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return tracedMBT{t, b.tr}, nil
}

func (b *ingestBench) setup(dir string, tr *tracer) error {
	b.tr = tr
	var err error
	if b.ts, b.repo, err = openRepo(filepath.Join(dir, "store"), tr, nil); err != nil {
		return err
	}
	b.repo.RegisterLoader("MBT", func(s store.Store, root hash.Hash, _ int) (core.Index, error) {
		t, err := mbt.Load(s, mbt.DefaultConfig(), root)
		if err != nil {
			return nil, err
		}
		return tracedMBT{t, b.tr}, nil
	})
	data := b.y.Dataset()
	idx, err := b.newMBT(b.ts)
	if err != nil {
		return err
	}
	if idx, err = idx.PutBatch(data); err != nil {
		return err
	}
	c, err := b.repo.Commit(ingestBranch, idx, "preload")
	if err != nil {
		return err
	}
	for _, e := range data {
		b.shadow[string(e.Key)] = e.Value
		b.merged[string(e.Key)] = e.Value
		b.userBytes += int64(len(e.Key) + len(e.Value))
	}
	b.headID, b.head = c.ID, idx.(tracedMBT).Tree
	b.walDir = filepath.Join(dir, "wal")
	b.buf, err = ingest.Open(b.repo, ingest.Options{Dir: b.walDir, Branch: ingestBranch, AutoMerge: true, New: b.newMBT})
	return err
}

func (b *ingestBench) run(lim limit) error {
	b.cnt0 = b.ts.counts()
	z := workload.NewZipfian(ingestRecords, ingestTheta, b.seed+1)
	rng := rand.New(rand.NewSource(b.seed + 2))
	gets := 0
	for i := 0; lim.more(0, i); i++ {
		key := b.y.Key(int(z.Next()))
		switch r := rng.Float64(); {
		case r < ingestPutFrac:
			if err := b.putGroup(z); err != nil {
				return err
			}
		case r < ingestPutFrac+ingestGetFrac:
			for k := 0; k < ingestGetBatch; k++ {
				gets++
				b.note(b.get(key, gets%ingestProveEvery == 0))
				key = b.y.Key(int(z.Next()))
			}
		default:
			b.note(b.scan(key))
		}
	}
	return nil
}

// putGroup writes ingestGroup zipfian keys and acknowledges them with one
// Flush; the group's latency is the commit metric.
func (b *ingestBench) putGroup(z *workload.Zipfian) error {
	var wal0 int64
	traced := b.tr.on.Load()
	if traced {
		wal0 = dirBytes(b.walDir)
	}
	var merged *version.Commit
	var want map[string][]byte
	start := time.Now()
	for j := 0; j < ingestGroup; j++ {
		id := int(z.Next())
		b.version++
		key, val := b.y.Key(id), b.y.Value(id, b.version)
		sp := b.tr.begin("ingest.Put")
		t0 := time.Now()
		err := b.buf.Put(key, val)
		d := time.Since(t0)
		b.tr.end(sp)
		b.note(err)
		if err != nil {
			return err
		}
		b.shadow[string(key)] = val
		b.pending[string(key)] = true
		b.measUser += int64(len(key) + len(val))
		if head, _ := b.repo.Head(ingestBranch); head.ID != b.headID {
			// At most one merge per group: a merge needs 4096 fresh keys.
			merged, want = &head, b.foldMerge()
			b.headID = head.ID
			b.mergeMs = append(b.mergeMs, ms(d))
		} else if traced {
			// A million samples a run: kept only where a metric uses them,
			// so their growth does not show in max_rss_mb.
			b.putUs = append(b.putUs, us(d))
		}
	}
	sp := b.tr.begin("ingest.Flush")
	err := b.buf.Flush()
	b.tr.end(sp)
	b.commitMs = append(b.commitMs, ms(time.Since(start)))
	b.note(err)
	if err != nil {
		return err
	}
	b.acked += ingestGroup
	if merged == nil {
		if traced {
			b.walGrowth += dirBytes(b.walDir) - wal0
			b.walPuts += ingestGroup
		}
		return nil
	}
	b.note(b.checkMerge(*merged, want))
	return nil
}

// foldMerge advances the merged model over the keys written since the
// previous merge and returns what diffing the new head against the old one
// must give: each key whose merged value changed, with its old value.
func (b *ingestBench) foldMerge() map[string][]byte {
	b.merges++
	b.mergeEntries = append(b.mergeEntries, float64(len(b.pending)))
	want := make(map[string][]byte)
	for k := range b.pending {
		if !bytes.Equal(b.merged[k], b.shadow[k]) {
			want[k] = b.merged[k]
		}
		b.merged[k] = b.shadow[k]
	}
	clear(b.pending)
	return want
}

// checkMerge diffs the merge commit head against the previous head.
func (b *ingestBench) checkMerge(head version.Commit, want map[string][]byte) error {
	idx, err := b.repo.Checkout(head.ID)
	if err != nil {
		return err
	}
	prev := b.head
	b.head = idx.(tracedMBT).Tree
	sp := b.tr.begin("mbt.Diff")
	start := time.Now()
	ds, err := b.head.Diff(prev)
	b.diffMs = append(b.diffMs, ms(time.Since(start)))
	b.tr.end(sp)
	if err != nil {
		return err
	}
	if len(ds) != len(want) {
		return fmt.Errorf("merge diff: %d entries, want %d", len(ds), len(want))
	}
	for _, d := range ds {
		old, ok := want[string(d.Key)]
		if !ok || !bytes.Equal(d.Right, old) || !bytes.Equal(d.Left, b.merged[string(d.Key)]) {
			return fmt.Errorf("merge diff: unexpected entry %s", d.Key)
		}
	}
	return nil
}

func (b *ingestBench) get(key []byte, prove bool) error {
	sp := b.tr.begin("ingest.Get")
	start := time.Now()
	v, ok, err := b.buf.Get(key)
	b.getUs = append(b.getUs, us(time.Since(start)))
	b.tr.end(sp)
	if err != nil {
		return err
	}
	if !ok || !bytes.Equal(v, b.shadow[string(key)]) {
		return fmt.Errorf("get %s: wrong value (found %v)", key, ok)
	}
	if !prove {
		return nil
	}
	start = time.Now()
	sp = b.tr.begin("mbt.Prove")
	p, err := b.head.Prove(key)
	if err == nil {
		err = b.head.VerifyProof(b.head.RootHash(), p)
	}
	b.tr.end(sp)
	b.proofUs = append(b.proofUs, us(time.Since(start)))
	if err != nil {
		return err
	}
	if !bytes.Equal(p.Value, b.merged[string(key)]) {
		return fmt.Errorf("proof of %s carries a value the head does not hold", key)
	}
	return nil
}

// scan reads up to ingestRangeRows entries from key on; no key is ever
// deleted, so they are the next keys of the key space.
func (b *ingestBench) scan(key []byte) error {
	var rows []core.Entry
	sp := b.tr.begin("ingest.Range")
	start := time.Now()
	err := b.buf.Range(key, nil, func(k, v []byte) bool {
		rows = append(rows, core.Entry{Key: append([]byte(nil), k...), Value: append([]byte(nil), v...)})
		return len(rows) < ingestRangeRows
	})
	b.scanUs = append(b.scanUs, us(time.Since(start)))
	b.tr.end(sp)
	b.scanRows += int64(len(rows))
	if err != nil {
		return err
	}
	at := sort.Search(len(b.sorted), func(i int) bool { return bytes.Compare(b.sorted[i], key) >= 0 })
	want := b.sorted[at:min(len(b.sorted), at+ingestRangeRows)]
	if len(rows) != len(want) {
		return fmt.Errorf("range from %s: %d rows, want %d", key, len(rows), len(want))
	}
	for i, r := range rows {
		if !bytes.Equal(r.Key, want[i]) || !bytes.Equal(r.Value, b.shadow[string(r.Key)]) {
			return fmt.Errorf("range from %s: wrong row %d (%s)", key, i, r.Key)
		}
	}
	return nil
}

func (b *ingestBench) e2e(wall time.Duration) map[string]float64 {
	m := map[string]float64{
		"get_p50_us":          median(b.getUs),
		"get_tail_us":         tail("get_tail_us", b.getUs, ingestGetTail),
		"commit_p50_ms":       median(b.commitMs),
		"commit_tail_ms":      tail("commit_tail_ms", b.commitMs, ingestCommitTail),
		"write_entries_per_s": float64(b.acked) / wall.Seconds(),
		"scan_p50_us":         median(b.scanUs),
		"proof_p50_us":        median(b.proofUs),
		"diff_p50_ms":         median(b.diffMs),
		"dedup_ratio":         b.dedup(),
	}
	if n, ok := store.DiskUsageOf(b.ts); ok {
		m["stored_bytes_per_user_byte"] = float64(n) / float64(b.userBytes+b.measUser)
	}
	return m
}

// dedup is core.DedupRatio over the newest ingestDedupWin merge commits.
func (b *ingestBench) dedup() float64 {
	log, err := b.repo.Log(ingestBranch)
	if err != nil {
		b.note(err)
		return 0
	}
	var vs []core.Index
	for _, c := range log[:min(len(log), ingestDedupWin)] {
		idx, err := b.repo.Checkout(c.ID)
		if err != nil {
			b.note(err)
			return 0
		}
		vs = append(vs, idx.(tracedMBT).Tree)
	}
	r, err := core.DedupRatio(vs...)
	b.note(err)
	return r
}

func (b *ingestBench) finish() (map[string]hash.Hash, error) {
	if err := b.err(); err != nil {
		return nil, err
	}
	// Fold what is still buffered, then the head must hold every
	// acknowledged write and equal a clean rebuild of the model.
	if _, _, err := b.buf.Merge(); err != nil {
		return nil, err
	}
	head, ok := b.repo.Head(ingestBranch)
	if !ok {
		return nil, errors.New("ingest branch vanished")
	}
	all := make([]core.Entry, 0, len(b.shadow))
	for k, v := range b.shadow {
		all = append(all, core.Entry{Key: []byte(k), Value: v})
	}
	t, err := mbt.New(store.NewMemStore(), mbt.DefaultConfig())
	if err != nil {
		return nil, err
	}
	clean, err := t.PutBatch(all)
	if err != nil {
		return nil, err
	}
	if clean.RootHash() != head.Root {
		return nil, errors.New("ingest head differs from a clean rebuild of the acknowledged writes")
	}
	rep, err := b.repo.Verify()
	if err != nil {
		return nil, err
	}
	if !rep.OK() {
		return nil, fmt.Errorf("scrub: %v", rep)
	}
	return map[string]hash.Hash{ingestBranch: head.Root}, nil
}

func (b *ingestBench) layers(a *analysis) map[string]float64 {
	var flush, storeGetUs, mergeSelf []float64
	var getsUnderGet, gets, rangeGets int
	for i := a.from; i < len(a.spans); i++ {
		switch a.spans[i].name {
		case "ingest.Get":
			gets++
		case "ingest.Flush":
			flush = append(flush, nsToUs(a.dur(i)))
		case "mbt.PutBatch":
			if a.under(i, "ingest.Put") {
				mergeSelf = append(mergeSelf, nsToMs(a.self[i]))
			}
		case "store.Get":
			if a.under(i, "ingest.Get") {
				getsUnderGet++
				storeGetUs = append(storeGetUs, nsToUs(a.dur(i)))
			}
			if a.under(i, "ingest.Range") {
				rangeGets++
			}
		}
	}
	cnt := b.ts.counts().minus(b.cnt0)
	return map[string]float64{
		"store.nodes_written_per_commit":    float64(cnt.Puts) / float64(max(1, b.merges)),
		"store.bytes_written_per_user_byte": float64(cnt.PutBytes) / float64(b.measUser),
		"store.gets_per_get":                float64(getsUnderGet) / float64(max(1, gets)),
		"store.get_p50_us":                  median(storeGetUs),
		"mbt.merge_put_batch_self_ms":       median(mergeSelf),
		"ingest.put_p50_us":                 median(b.putUs),
		"ingest.flush_p50_us":               median(flush),
		"ingest.merge_ms_p50":               median(b.mergeMs),
		"ingest.entries_per_merge":          median(b.mergeEntries),
		"ingest.wal_bytes_per_put":          float64(b.walGrowth) / float64(max(1, b.walPuts)),
		"ingest.range_store_gets_per_row":   float64(rangeGets) / float64(max(1, b.scanRows)),
	}
}

func (b *ingestBench) close() {
	if b.buf != nil {
		b.buf.Close()
	}
	if b.ts != nil {
		b.ts.Close()
	}
}
