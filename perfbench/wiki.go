package main

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/forkbase"
	"repro/internal/hash"
	"repro/internal/postree"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/version"
	"repro/internal/workload"
)

// wiki-served-pos: collaborative analytics over Forkbase (§5.6). A Wiki
// corpus lives in a POS-Tree committed to a repo over DiskStore and served
// by forkbase.NewServletRepo on loopback. One client connection writes
// VersionUpdates batches with Client.PutBatch; the other reads zipfian
// pages with Client.Get through a client cache of a fixed fraction of the
// tree's bytes, refreshes its root every wikiRefreshEvery reads, ships a
// Client.Query range every wikiQueryEvery-th operation, proves every
// wikiProveEvery-th read and, every wikiDiffEvery refreshes, diffs the
// version its root holds against the version before it — the last two
// over the client's node cache, fetching missing nodes from the servlet
// like Client.Get does.
const (
	wikiPages        = 40000
	wikiUpdates      = 100 // pages changed per VersionUpdates batch
	wikiCacheDiv     = 8   // client cache = tree bytes ÷ wikiCacheDiv
	wikiTheta        = 0.99
	wikiRefreshEvery = 64
	wikiQueryEvery   = 16
	wikiQueryRows    = 10
	wikiProveEvery   = 8
	wikiDiffEvery    = 32 // refreshes between diffs
	wikiDedupWindow  = 8  // newest versions core.DedupRatio covers
	wikiBranch       = "wiki"
	wikiGetTail      = 99.5 // percentiles of the tail metrics
	wikiCommitTail   = 98
)

// wikiTraceOps: writer batches and reader operations in one traced pass.
func wikiTraceOps(seconds int) []int { return []int{15 * seconds, 1500 * seconds} }

type wiki struct {
	seed   int64
	gen    *workload.Wiki
	cfg    postree.Config
	corpus []core.Entry
	sorted [][]byte       // every key in order, for the query oracle
	pageOf map[string]int // key → page number

	tr    *tracer
	ts    *tstore
	repo  *version.Repo
	srv   *forkbase.Servlet
	addr  string
	cache int64

	tally
	busySeen atomic.Int64 // ErrBusy, ErrCircuitOpen and ErrBudgetExceeded seen

	mu      sync.Mutex    // guards written, roots, verOf and nextVer
	written map[int][]int // page → versions the writer issued for it, ascending
	roots   []rootAt      // version → root the servlet acknowledged
	verOf   map[hash.Hash]int
	nextVer int

	userBytes, measUser, acked int64
	cnt0                       storeCounts

	getUs, commitMs, scanUs, proofUs, diffMs, refreshUs []float64
	fetches                                             []int64
	commits                                             int
}

type rootAt struct {
	root   hash.Hash
	height int
}

func newWiki(seed int64) bench {
	w := &wiki{
		seed:    seed,
		gen:     workload.NewWiki(workload.WikiConfig{Pages: wikiPages, UpdatesPerVersion: wikiUpdates, Seed: seed}),
		cfg:     postree.DefaultConfig(),
		pageOf:  make(map[string]int, wikiPages),
		written: make(map[int][]int),
		verOf:   make(map[hash.Hash]int),
		nextVer: 1,
	}
	w.corpus = w.gen.Dataset()
	for i, e := range w.corpus {
		w.pageOf[string(e.Key)] = i
		w.sorted = append(w.sorted, e.Key)
	}
	sort.Slice(w.sorted, func(i, j int) bool { return bytes.Compare(w.sorted[i], w.sorted[j]) < 0 })
	return w
}

func (w *wiki) counts() storeCounts { return w.ts.counts() }

func (w *wiki) sizes() string {
	return fmt.Sprintf("%d pages, %d user bytes, %d tree bytes on disk, %d store nodes; client cache %d bytes",
		wikiPages, w.userBytes, w.cache*wikiCacheDiv, w.ts.Stats().UniqueNodes, w.cache)
}

// note records an operation's outcome, counting the overload errors the
// client surfaced.
func (w *wiki) note(err error) {
	if errors.Is(err, forkbase.ErrBusy) || errors.Is(err, forkbase.ErrCircuitOpen) || errors.Is(err, forkbase.ErrBudgetExceeded) {
		w.busySeen.Add(1)
	}
	w.tally.note(err)
}

func (w *wiki) loader(s store.Store, root hash.Hash, height int) core.Index {
	return postree.Load(s, w.cfg, root, height)
}

func (w *wiki) setup(dir string, tr *tracer) error {
	w.tr = tr
	var err error
	if w.ts, w.repo, err = openRepo(dir, tr, nil); err != nil {
		return err
	}
	w.repo.RegisterLoader(postree.New(w.ts, w.cfg).Name(), func(s store.Store, root hash.Hash, height int) (core.Index, error) {
		return postree.Load(s, w.cfg, root, height), nil
	})
	sp := tr.begin("postree.PutBatch")
	idx, err := postree.New(w.ts, w.cfg).PutBatch(w.corpus)
	tr.end(sp)
	if err != nil {
		return err
	}
	if _, err := w.repo.Commit(wikiBranch, idx, "corpus"); err != nil {
		return err
	}
	w.roots = []rootAt{{idx.RootHash(), idx.(*postree.Tree).Height()}}
	w.verOf[idx.RootHash()] = 0
	for _, e := range w.corpus {
		w.userBytes += int64(len(e.Key) + len(e.Value))
	}
	n, ok := store.DiskUsageOf(w.ts)
	if !ok {
		return errors.New("store reports no disk usage")
	}
	w.cache = n / wikiCacheDiv
	if w.srv, err = forkbase.NewServletRepo(w.repo, wikiBranch); err != nil {
		return err
	}
	w.addr, err = w.srv.Start("127.0.0.1:0")
	return err
}

func (w *wiki) run(lim limit) error {
	w.cnt0 = w.ts.counts()
	writer, err := forkbase.DialOptions(w.addr, w.loader, forkbase.Options{})
	if err != nil {
		return err
	}
	defer writer.Close()
	var readStore store.Store
	reader, err := forkbase.DialOptions(w.addr, func(s store.Store, root hash.Hash, height int) core.Index {
		readStore = s
		return w.loader(s, root, height)
	}, forkbase.Options{CacheBytes: w.cache})
	if err != nil {
		return err
	}
	defer reader.Close()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		w.tr.lane()
		w.writeLoop(writer, lim)
	}()
	go func() {
		defer wg.Done()
		w.tr.lane()
		w.readLoop(reader, &readStore, lim)
	}()
	wg.Wait()
	return nil
}

func (w *wiki) writeLoop(c *forkbase.Client, lim limit) {
	for i := 0; lim.more(0, i); i++ {
		w.mu.Lock()
		v := w.nextVer
		w.nextVer++
		batch := w.gen.VersionUpdates(v)
		for _, e := range batch {
			p := w.pageOf[string(e.Key)]
			w.written[p] = append(w.written[p], v)
		}
		w.mu.Unlock()
		sp := w.tr.begin("forkbase.PutBatch")
		start := time.Now()
		err := c.PutBatch(batch)
		d := time.Since(start)
		w.tr.end(sp)
		w.note(err)
		if err != nil {
			return
		}
		root, height := c.Root()
		w.mu.Lock()
		w.roots = append(w.roots, rootAt{root, height})
		w.verOf[root] = v
		w.mu.Unlock()
		w.commitMs = append(w.commitMs, ms(d))
		w.commits++
		w.acked += int64(len(batch))
		for _, e := range batch {
			w.measUser += int64(len(e.Key) + len(e.Value))
		}
	}
}

// generated reports whether value is one the generator wrote for key.
func (w *wiki) generated(key, value []byte) bool {
	p, ok := w.pageOf[string(key)]
	if !ok {
		return false
	}
	if bytes.Equal(value, w.gen.Value(p, 0)) {
		return true
	}
	w.mu.Lock()
	vs := w.written[p]
	w.mu.Unlock()
	for _, v := range vs {
		if bytes.Equal(value, w.gen.Value(p, v)) {
			return true
		}
	}
	return false
}

func (w *wiki) readLoop(c *forkbase.Client, rs *store.Store, lim limit) {
	z := workload.NewZipfian(wikiPages, wikiTheta, w.seed+1)
	gets := 0
	refreshes := 0
	for i := 0; lim.more(1, i); i++ {
		key := w.corpus[z.Next()].Key
		if i%wikiQueryEvery == wikiQueryEvery-1 {
			w.note(w.query(c, key))
			continue
		}
		w.note(w.get(c, key))
		gets++
		if gets%wikiProveEvery == 0 {
			w.note(w.prove(c, *rs, key))
		}
		if gets%wikiRefreshEvery == 0 {
			sp := w.tr.begin("forkbase.Refresh")
			start := time.Now()
			err := c.Refresh()
			w.refreshUs = append(w.refreshUs, us(time.Since(start)))
			w.tr.end(sp)
			w.note(err)
			refreshes++
			if refreshes%wikiDiffEvery == 0 {
				root, _ := c.Root()
				w.mu.Lock()
				v, ok := w.verOf[root]
				w.mu.Unlock()
				if ok && v > 0 { // else the writer has not recorded it yet
					w.note(w.diff(*rs, v))
				}
			}
		}
	}
}

func (w *wiki) get(c *forkbase.Client, key []byte) error {
	_, m0 := c.CacheStats()
	sp := w.tr.begin("forkbase.Get")
	start := time.Now()
	v, ok, err := c.Get(key)
	d := time.Since(start)
	w.tr.end(sp)
	_, m1 := c.CacheStats()
	w.getUs = append(w.getUs, us(d))
	w.fetches = append(w.fetches, m1-m0)
	if err != nil {
		return err
	}
	if !ok || !w.generated(key, v) {
		return fmt.Errorf("get %s: value never written (found %v)", key, ok)
	}
	return nil
}

// query asks for the wikiQueryRows keys from key on; pages are never
// deleted, so the rows are exactly the next keys of the corpus.
func (w *wiki) query(c *forkbase.Client, key []byte) error {
	sp := w.tr.begin("forkbase.Query")
	start := time.Now()
	rows, _, err := c.Query(query.Query{Lo: key, Limit: wikiQueryRows})
	w.scanUs = append(w.scanUs, us(time.Since(start)))
	w.tr.end(sp)
	if err != nil {
		return err
	}
	at := sort.Search(len(w.sorted), func(i int) bool { return bytes.Compare(w.sorted[i], key) >= 0 })
	want := w.sorted[at:min(len(w.sorted), at+wikiQueryRows)]
	if len(rows) != len(want) {
		return fmt.Errorf("query from %s: %d rows, want %d", key, len(rows), len(want))
	}
	for i, r := range rows {
		if !bytes.Equal(r.Key, want[i]) || !w.generated(r.Key, r.Value) {
			return fmt.Errorf("query from %s: wrong row %d (%s)", key, i, r.Key)
		}
	}
	return nil
}

// prove proves key at the client's root over the client's node cache.
func (w *wiki) prove(c *forkbase.Client, rs store.Store, key []byte) error {
	root, height := c.Root()
	view := w.loader(rs, root, height)
	start := time.Now()
	sp := w.tr.begin("postree.Prove")
	p, err := view.Prove(key)
	if err == nil {
		err = view.VerifyProof(root, p)
	}
	w.tr.end(sp)
	w.proofUs = append(w.proofUs, us(time.Since(start)))
	if err != nil {
		return err
	}
	if !w.generated(key, p.Value) {
		return fmt.Errorf("proof of %s carries a value never written", key)
	}
	return nil
}

// valueAt returns page p's value at version v.
func (w *wiki) valueAt(p, v int) []byte {
	w.mu.Lock()
	vs := w.written[p]
	at := 0
	for _, u := range vs {
		if u <= v {
			at = u
		}
	}
	w.mu.Unlock()
	return w.gen.Value(p, at)
}

// diff compares version v against version v−1 over the client's node
// cache. The result must be exactly the pages batch v changed.
func (w *wiki) diff(rs store.Store, v int) error {
	w.mu.Lock()
	a, b := w.roots[v], w.roots[v-1]
	w.mu.Unlock()
	cur, prev := w.loader(rs, a.root, a.height), w.loader(rs, b.root, b.height)
	sp := w.tr.begin("postree.Diff")
	start := time.Now()
	ds, err := cur.Diff(prev)
	w.diffMs = append(w.diffMs, ms(time.Since(start)))
	w.tr.end(sp)
	if err != nil {
		return err
	}
	want := make(map[string]bool)
	for _, e := range w.gen.VersionUpdates(v) {
		p := w.pageOf[string(e.Key)]
		want[string(e.Key)] = !bytes.Equal(w.valueAt(p, v), w.valueAt(p, v-1))
	}
	n := 0
	for _, ok := range want {
		if ok {
			n++
		}
	}
	if len(ds) != n {
		return fmt.Errorf("diff of version %d: %d entries, want %d", v, len(ds), n)
	}
	for _, d := range ds {
		p, known := w.pageOf[string(d.Key)]
		if !known || !want[string(d.Key)] || !bytes.Equal(d.Left, w.valueAt(p, v)) || !bytes.Equal(d.Right, w.valueAt(p, v-1)) {
			return fmt.Errorf("diff of version %d: unexpected entry %s", v, d.Key)
		}
	}
	return nil
}

func (w *wiki) e2e(wall time.Duration) map[string]float64 {
	m := map[string]float64{
		"get_p50_us":          median(w.getUs),
		"get_tail_us":         tail("get_tail_us", w.getUs, wikiGetTail),
		"commit_p50_ms":       median(w.commitMs),
		"commit_tail_ms":      tail("commit_tail_ms", w.commitMs, wikiCommitTail),
		"write_entries_per_s": float64(w.acked) / wall.Seconds(),
		"scan_p50_us":         median(w.scanUs),
		"proof_p50_us":        median(w.proofUs),
		"diff_p50_ms":         median(w.diffMs),
		"dedup_ratio":         w.dedup(),
	}
	if n, ok := store.DiskUsageOf(w.ts); ok {
		m["stored_bytes_per_user_byte"] = float64(n) / float64(w.userBytes+w.measUser)
	}
	return m
}

// dedup is core.DedupRatio over the newest wikiDedupWindow versions.
func (w *wiki) dedup() float64 {
	log, err := w.repo.Log(wikiBranch)
	if err != nil {
		w.note(err)
		return 0
	}
	var vs []core.Index
	for _, c := range log[:min(len(log), wikiDedupWindow)] {
		idx, err := w.repo.Checkout(c.ID)
		if err != nil {
			w.note(err)
			return 0
		}
		vs = append(vs, idx)
	}
	r, err := core.DedupRatio(vs...)
	w.note(err)
	return r
}

func (w *wiki) finish() (map[string]hash.Hash, error) {
	if err := w.err(); err != nil {
		return nil, err
	}
	head, ok := w.repo.Head(wikiBranch)
	if !ok {
		return nil, errors.New("wiki branch vanished")
	}
	// Every acknowledged batch, applied in order over the corpus, must
	// rebuild to the head.
	expect := make(map[string][]byte, len(w.corpus))
	for _, e := range w.corpus {
		expect[string(e.Key)] = e.Value
	}
	for v := 1; v < w.nextVer; v++ {
		for _, e := range w.gen.VersionUpdates(v) {
			expect[string(e.Key)] = e.Value
		}
	}
	all := make([]core.Entry, 0, len(expect))
	for k, v := range expect {
		all = append(all, core.Entry{Key: []byte(k), Value: v})
	}
	clean, err := postree.New(store.NewMemStore(), w.cfg).PutBatch(all)
	if err != nil {
		return nil, err
	}
	if clean.RootHash() != head.Root {
		return nil, errors.New("wiki head differs from a clean rebuild of the acknowledged batches")
	}
	rep, err := w.repo.Verify()
	if err != nil {
		return nil, err
	}
	if !rep.OK() {
		return nil, fmt.Errorf("scrub: %v", rep)
	}
	return map[string]hash.Hash{wikiBranch: head.Root}, nil
}

func (w *wiki) layers(a *analysis) map[string]float64 {
	var flush, setMeta, preload, local, fetched []float64
	var batchNs int64
	serves := 0
	for i, s := range a.spans {
		switch {
		case s.name == "postree.PutBatch" && i < a.from:
			preload = append(preload, nsToMs(a.dur(i)))
		case i < a.from:
		case s.name == "store.Get":
			serves++
		case s.name == "store.PutBatch":
			batchNs += a.dur(i)
		case s.name == "store.Flush":
			flush = append(flush, nsToUs(a.dur(i)))
		case s.name == "store.SetMeta":
			setMeta = append(setMeta, nsToUs(a.dur(i)))
		}
	}
	var fetchSum int64
	for i, f := range w.fetches {
		fetchSum += f
		if f == 0 {
			local = append(local, w.getUs[i])
		} else {
			fetched = append(fetched, w.getUs[i])
		}
	}
	return map[string]float64{
		"forkbase.rtt_p50_us":           median(w.refreshUs),
		"forkbase.fetches_per_get":      float64(fetchSum) / float64(max(1, len(w.fetches))),
		"forkbase.get_local_p50_us":     median(local),
		"forkbase.get_fetch_p50_us":     median(fetched),
		"forkbase.busy_seen":            float64(w.busySeen.Load()),
		"store.put_batch_ms_per_commit": nsToMs(batchNs) / float64(max(1, w.commits)),
		"store.node_serves":             float64(serves),
		"store.flush_p50_us":            median(flush),
		"store.set_meta_p50_us":         median(setMeta),
		"postree.preload_ms":            median(preload),
	}
}

func (w *wiki) close() {
	if w.srv != nil {
		w.srv.Close()
	}
	if w.ts != nil {
		w.ts.Close()
	}
}
