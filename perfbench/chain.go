package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/mpt"
	"repro/internal/store"
	"repro/internal/version"
	"repro/internal/workload"
)

// chain-mpt: a blockchain node keeping Ethereum-shaped transactions (§5.1.3)
// in an MPT over DiskStore. The main lane commits one block per
// version.CommitRetry, then reads back uniformly drawn transactions (every
// chainProveEvery-th read also proves), scans one key-prefix range, and
// every chainDiffEvery blocks diffs the head against a pinned checkout of
// an older head. A second lane prunes with GCRetainRecent while the first
// keeps committing.
const (
	chainTxPerBlock   = 150
	chainSetupBlocks  = 400 // committed before the measured phase
	chainSetupHistory = 16  // of those, the last ones commit one block each
	chainReads        = 32  // point reads per block
	chainProveEvery   = 8   // every k-th read also runs Prove + VerifyProof
	chainDiffEvery    = 8   // diff the head against head−chainDiffDepth every this many blocks
	chainDiffDepth    = 2   // D
	chainGCEvery      = 32  // G: request a GC pass every G blocks
	chainRetain       = 4   // N: GCRetainRecent(N), also the dedup window
	chainBranch       = "main"
	chainGetTail      = 99 // percentiles of the tail metrics
	chainCommitTail   = 95
)

// chainTraceOps: blocks committed by the main lane in one traced pass.
func chainTraceOps(seconds int) []int { return []int{15 * seconds} }

type chain struct {
	gen      *workload.Ethereum
	rng      *rand.Rand
	setupTxs [][]core.Entry

	wrap func(store.Store) store.Store // see openRepo
	tr   *tracer
	ts   *tstore
	repo *version.Repo
	head core.Index
	ids  []hash.Hash // commit id per block, newest last

	keys      [][]byte            // every committed key, for uniform reads
	byPrefix  map[string][][]byte // first three hex digits → keys, for the scan oracle
	nextBlock int
	acked     int64 // entries committed in the measured phase

	tally
	mu          sync.Mutex // guards the fields below, shared with the GC lane
	userBytes   int64
	gcMs        []float64
	gcStats     []version.GCStats
	storedRatio []float64 // disk usage / user bytes after each pass

	// Measured-phase samples and counters.
	getUs, commitMs, scanUs, proofUs, diffMs []float64
	mutates, commits                         int
	measUser                                 int64
	cnt0                                     storeCounts
}

func newChain(seed int64) bench {
	c := &chain{
		gen:      workload.NewEthereum(workload.EthConfig{TxPerBlock: chainTxPerBlock, Seed: seed}),
		rng:      rand.New(rand.NewSource(seed)),
		byPrefix: make(map[string][][]byte),
	}
	for n := 0; n < chainSetupBlocks; n++ {
		c.setupTxs = append(c.setupTxs, c.gen.BlockAt(n).Txs)
	}
	return c
}

func (c *chain) counts() storeCounts { return c.ts.counts() }

func (c *chain) sizes() string {
	return fmt.Sprintf("%d transactions, %d store nodes; decoded-node cache %d entries",
		len(c.keys), c.ts.Stats().UniqueNodes, core.DefaultNodeCacheEntries)
}

func (c *chain) setup(dir string, tr *tracer) error {
	c.tr = tr
	var err error
	if c.ts, c.repo, err = openRepo(dir, tr, c.wrap); err != nil {
		return err
	}
	c.repo.RegisterLoader("MPT", func(s store.Store, root hash.Hash, _ int) (core.Index, error) {
		return mpt.Load(s, root), nil
	})
	// A snapshot of the older blocks in one commit, then the recent
	// history one block per commit, as a node syncing from a snapshot.
	var snap []core.Entry
	for _, txs := range c.setupTxs[:chainSetupBlocks-chainSetupHistory] {
		snap = append(snap, txs...)
	}
	if err := c.commit(snap, false); err != nil {
		return err
	}
	for _, txs := range c.setupTxs[chainSetupBlocks-chainSetupHistory:] {
		if err := c.commit(txs, false); err != nil {
			return err
		}
	}
	c.setupTxs = nil
	c.nextBlock = chainSetupBlocks
	return nil
}

// commit appends one block (or the setup snapshot) as a new head version.
func (c *chain) commit(txs []core.Entry, measured bool) error {
	var next core.Index
	sp := c.tr.begin("version.CommitRetry")
	start := time.Now()
	cm, err := version.CommitRetry(c.repo, chainBranch, "block", func(idx core.Index) (core.Index, error) {
		if measured {
			c.mutates++
		}
		if idx == nil {
			idx = mpt.New(c.repo.Store())
		}
		i := c.tr.begin("mpt.PutBatch")
		n, err := idx.PutBatch(txs)
		c.tr.end(i)
		next = n
		return n, err
	})
	d := time.Since(start)
	c.tr.end(sp)
	if err != nil {
		return fmt.Errorf("commit block: %w", err)
	}
	c.head = next
	c.ids = append(c.ids, cm.ID)
	var user int64
	for _, e := range txs {
		c.keys = append(c.keys, e.Key)
		p := string(e.Key[:3])
		c.byPrefix[p] = append(c.byPrefix[p], e.Key)
		user += int64(len(e.Key) + len(e.Value))
	}
	c.mu.Lock()
	c.userBytes += user
	c.mu.Unlock()
	if measured {
		c.commits++
		c.commitMs = append(c.commitMs, ms(d))
		c.acked += int64(len(txs))
		for _, e := range txs {
			c.measUser += int64(len(e.Key) + len(e.Value))
		}
	}
	return nil
}

// valueMatches is the read oracle: a transaction's key is the hex SHA-256
// of its value.
func valueMatches(key, value []byte) bool {
	sum := sha256.Sum256(value)
	var hx [64]byte
	hex.Encode(hx[:], sum[:])
	return bytes.Equal(hx[:], key)
}

func (c *chain) run(lim limit) error {
	c.cnt0 = c.ts.counts()
	gcReq := make(chan struct{}, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.gcLane(gcReq)
	}()
	defer func() {
		close(gcReq)
		wg.Wait()
	}()
	for b := 0; lim.more(0, b); b++ {
		txs := c.gen.BlockAt(c.nextBlock).Txs
		err := c.commit(txs, true)
		c.note(err)
		if err != nil {
			return err
		}
		c.nextBlock++
		if c.nextBlock%chainGCEvery == 0 {
			select {
			case gcReq <- struct{}{}:
			default: // a pass is still pending: one pass at a time
			}
		}
		for r := 0; r < chainReads; r++ {
			c.note(c.read(r%chainProveEvery == chainProveEvery-1))
		}
		c.note(c.scan())
		if c.nextBlock%chainDiffEvery == 0 {
			c.note(c.diff())
		}
	}
	return nil
}

// sampleStored records the store's disk usage after a GC pass.
func (c *chain) sampleStored(user int64) {
	if n, ok := store.DiskUsageOf(c.ts); ok {
		c.mu.Lock()
		c.storedRatio = append(c.storedRatio, float64(n)/float64(user))
		c.mu.Unlock()
	}
}

// gcLane runs one GC pass per request until the channel closes.
func (c *chain) gcLane(req <-chan struct{}) {
	c.tr.lane()
	for range req {
		sp := c.tr.begin("version.GC")
		start := time.Now()
		st, err := c.repo.GCRetainRecent(chainRetain)
		d := time.Since(start)
		c.tr.end(sp)
		c.note(err)
		c.mu.Lock()
		c.gcMs = append(c.gcMs, ms(d))
		c.gcStats = append(c.gcStats, st)
		user := c.userBytes
		c.mu.Unlock()
		c.sampleStored(user)
	}
}

func (c *chain) read(prove bool) error {
	key := c.keys[c.rng.Intn(len(c.keys))]
	sp := c.tr.begin("mpt.Get")
	start := time.Now()
	v, ok, err := c.head.Get(key)
	d := time.Since(start)
	c.tr.end(sp)
	c.getUs = append(c.getUs, us(d))
	if err != nil {
		return err
	}
	if !ok || !valueMatches(key, v) {
		return fmt.Errorf("get %s: wrong value (found %v)", key, ok)
	}
	if !prove {
		return nil
	}
	start = time.Now()
	sp = c.tr.begin("mpt.Prove")
	p, err := c.head.Prove(key)
	c.tr.end(sp)
	if err != nil {
		return err
	}
	sp = c.tr.begin("mpt.VerifyProof")
	err = c.head.VerifyProof(c.head.RootHash(), p)
	c.tr.end(sp)
	c.proofUs = append(c.proofUs, us(time.Since(start)))
	if err != nil {
		return err
	}
	if !bytes.Equal(p.Value, v) {
		return fmt.Errorf("proof of %s carries a different value", key)
	}
	return nil
}

// scan lists the transactions whose key starts with the first three hex
// digits of a random committed key.
func (c *chain) scan() error {
	prefix := c.keys[c.rng.Intn(len(c.keys))][:3]
	lo := append([]byte(nil), prefix...)
	hi := append([]byte(nil), prefix...)
	hi[2]++ // '9'+1 and 'f'+1 still sort between hex digits' successors
	var rows [][]byte
	var bad error
	sp := c.tr.begin("mpt.Range")
	start := time.Now()
	err := c.head.(core.Ranger).Range(lo, hi, func(k, v []byte) bool {
		if !valueMatches(k, v) {
			bad = fmt.Errorf("scan: wrong value under %s", k)
		}
		rows = append(rows, append([]byte(nil), k...))
		return true
	})
	c.scanUs = append(c.scanUs, us(time.Since(start)))
	c.tr.end(sp)
	if err != nil {
		return err
	}
	if bad != nil {
		return bad
	}
	want := append([][]byte(nil), c.byPrefix[string(prefix)]...)
	sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i], want[j]) < 0 })
	if len(rows) != len(want) {
		return fmt.Errorf("scan %s: %d rows, want %d", prefix, len(rows), len(want))
	}
	for i := range rows {
		if !bytes.Equal(rows[i], want[i]) {
			return fmt.Errorf("scan %s: row %d is %s, want %s", prefix, i, rows[i], want[i])
		}
	}
	return nil
}

// diff compares the head against a pinned checkout of head−D; the result
// must be exactly the transactions of the last D blocks.
func (c *chain) diff() error {
	old, pin, err := c.repo.CheckoutPinned(c.ids[len(c.ids)-1-chainDiffDepth])
	if err != nil {
		return err
	}
	defer pin.Release()
	sp := c.tr.begin("mpt.Diff")
	start := time.Now()
	ds, err := c.head.Diff(old)
	c.diffMs = append(c.diffMs, ms(time.Since(start)))
	c.tr.end(sp)
	if err != nil {
		return err
	}
	want := make(map[string]bool)
	for n := c.nextBlock - chainDiffDepth; n < c.nextBlock; n++ {
		for _, e := range c.gen.BlockAt(n).Txs {
			want[string(e.Key)] = true
		}
	}
	if len(ds) != len(want) {
		return fmt.Errorf("diff: %d entries, want %d", len(ds), len(want))
	}
	for _, d := range ds {
		if !want[string(d.Key)] || d.Right != nil || !valueMatches(d.Key, d.Left) {
			return fmt.Errorf("diff: unexpected entry %s", d.Key)
		}
	}
	return nil
}

func (c *chain) e2e(wall time.Duration) map[string]float64 {
	m := map[string]float64{
		"get_p50_us":          median(c.getUs),
		"get_tail_us":         tail("get_tail_us", c.getUs, chainGetTail),
		"commit_p50_ms":       median(c.commitMs),
		"commit_tail_ms":      tail("commit_tail_ms", c.commitMs, chainCommitTail),
		"write_entries_per_s": float64(c.acked) / wall.Seconds(),
		"scan_p50_us":         median(c.scanUs),
		"proof_p50_us":        median(c.proofUs),
		"diff_p50_ms":         median(c.diffMs),
	}
	// The footprint steps as DiskStore compacts whole segments, so the
	// metric is the mean over the samples taken after every pass,
	// including one last pass now.
	_, err := c.repo.GCRetainRecent(chainRetain)
	c.note(err)
	c.sampleStored(c.userBytes)
	var sum float64
	for _, r := range c.storedRatio {
		sum += r
	}
	m["stored_bytes_per_user_byte"] = sum / float64(len(c.storedRatio))
	m["dedup_ratio"] = c.dedup()
	return m
}

// dedup is core.DedupRatio over the versions GC retains.
func (c *chain) dedup() float64 {
	var vs []core.Index
	for _, id := range c.ids[len(c.ids)-chainRetain:] {
		idx, err := c.repo.Checkout(id)
		if err != nil {
			c.note(err)
			return 0
		}
		vs = append(vs, idx)
	}
	r, err := core.DedupRatio(vs...)
	c.note(err)
	return r
}

func (c *chain) finish() (map[string]hash.Hash, error) {
	if err := c.err(); err != nil {
		return nil, err
	}
	// The head must equal a clean rebuild of every block committed.
	var all []core.Entry
	for n := 0; n < c.nextBlock; n++ {
		all = append(all, c.gen.BlockAt(n).Txs...)
	}
	clean, err := mpt.New(store.NewMemStore()).PutBatch(all)
	if err != nil {
		return nil, err
	}
	if clean.RootHash() != c.head.RootHash() {
		return nil, errors.New("chain head differs from a clean rebuild of the committed blocks")
	}
	if head, ok := c.repo.Head(chainBranch); !ok || head.Root != c.head.RootHash() {
		return nil, errors.New("branch head is not the last acknowledged commit")
	}
	rep, err := c.repo.Verify()
	if err != nil {
		return nil, err
	}
	if !rep.OK() {
		return nil, fmt.Errorf("scrub: %v", rep)
	}
	return map[string]hash.Hash{chainBranch: c.head.RootHash()}, nil
}

func (c *chain) layers(a *analysis) map[string]float64 {
	var (
		getSelf, storeGetUs, prove, verify, commitSelf, flush, setMeta []float64
		putBatchSelf, storeBatch                                       int64
		storeGetsUnderGet, gets, diffGets, diffs                       int
	)
	for i := a.from; i < len(a.spans); i++ {
		switch a.spans[i].name {
		case "mpt.Get":
			gets++
			getSelf = append(getSelf, nsToUs(a.self[i]))
		case "mpt.Prove":
			prove = append(prove, nsToUs(a.dur(i)))
		case "mpt.VerifyProof":
			verify = append(verify, nsToUs(a.dur(i)))
		case "mpt.Diff":
			diffs++
		case "mpt.PutBatch":
			if a.under(i, "version.CommitRetry") {
				putBatchSelf += a.self[i]
			}
		case "version.CommitRetry":
			commitSelf = append(commitSelf, nsToUs(a.self[i]))
		case "store.Get":
			if a.under(i, "mpt.Get") {
				storeGetsUnderGet++
				storeGetUs = append(storeGetUs, nsToUs(a.dur(i)))
			}
			if a.under(i, "mpt.Diff") {
				diffGets++
			}
		case "store.PutBatch":
			if a.under(i, "version.CommitRetry") {
				storeBatch += a.dur(i)
			}
		case "store.Flush":
			flush = append(flush, nsToUs(a.dur(i)))
		case "store.SetMeta":
			setMeta = append(setMeta, nsToUs(a.dur(i)))
		}
	}
	commits := float64(c.commits)
	cnt := c.ts.counts().minus(c.cnt0)
	m := map[string]float64{
		"store.put_batch_ms_per_commit":      nsToMs(storeBatch) / commits,
		"store.nodes_written_per_commit":     float64(cnt.Puts) / commits,
		"store.bytes_written_per_user_byte":  float64(cnt.PutBytes) / float64(c.measUser),
		"store.gets_per_get":                 float64(storeGetsUnderGet) / float64(gets),
		"store.get_p50_us":                   median(storeGetUs),
		"store.flush_p50_us":                 median(flush),
		"store.set_meta_p50_us":              median(setMeta),
		"mpt.put_batch_self_ms":              nsToMs(putBatchSelf) / commits,
		"mpt.get_self_p50_us":                median(getSelf),
		"mpt.prove_p50_us":                   median(prove),
		"mpt.verify_p50_us":                  median(verify),
		"mpt.diff_store_gets":                float64(diffGets) / float64(max(1, diffs)),
		"version.commit_self_p50_us":         median(commitSelf),
		"version.commit_attempts_per_commit": float64(c.mutates) / float64(c.commits),
		"version.gc_pass_ms":                 median(c.gcMs),
	}
	if n := len(c.gcStats); n > 0 {
		var live, swept []float64
		for _, st := range c.gcStats {
			live = append(live, float64(st.LiveNodes))
			swept = append(swept, float64(st.Store.SweptBytes))
		}
		m["version.gc_live_nodes"] = median(live)
		m["version.gc_swept_bytes"] = median(swept)
	}
	return m
}

func (c *chain) close() {
	if c.ts != nil {
		c.ts.Close()
	}
}
